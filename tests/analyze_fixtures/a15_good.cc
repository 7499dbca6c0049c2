// Fixture: clean counterparts to a15_bad.cc — a coroutine that takes
// its table entry again after every co_await, or copies what it needs
// before one. Zero findings expected.
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "sim/task.h"

namespace fx {

struct Obj
{
    std::uint64_t stripe = 0;
    std::vector<std::uint32_t> components;
};

struct Reply
{
    int status = 0;
    std::uint64_t size = 0;
};

class Manager
{
  public:
    sim::Task<Reply> serveGetSize(std::uint64_t id);
    sim::Task<Reply> serveRemove(std::uint64_t id);
    sim::Task<Reply> serveTouch(std::uint64_t id);

  private:
    Obj *find(std::uint64_t id);
    sim::Task<std::uint64_t> getAttr(std::uint32_t component);

    std::map<std::uint64_t, Obj> objects_;
    std::map<std::uint64_t, std::shared_ptr<Obj>> shared_;
};

// The entry is looked up again at the top of every iteration.
sim::Task<Reply>
Manager::serveGetSize(std::uint64_t id)
{
    Reply reply;
    for (std::size_t k = 0;; ++k) {
        const Obj *obj = find(id);
        if (obj == nullptr) {
            reply.status = 1;
            co_return reply;
        }
        if (k == obj->components.size())
            break;
        const std::uint64_t stripe = obj->stripe;
        const std::uint64_t csize = co_await getAttr(obj->components[k]);
        reply.size += csize * stripe;
    }
    co_return reply;
}

// Out of the table before the first suspension: the handler owns the
// value it works on.
sim::Task<Reply>
Manager::serveRemove(std::uint64_t id)
{
    Reply reply;
    auto entry = objects_.extract(id);
    if (entry.empty())
        co_return reply;
    const Obj obj = std::move(entry.mapped());
    for (const auto component : obj.components)
        reply.size += co_await getAttr(component);
    co_return reply;
}

// Shared ownership and a re-taken iterator; a use after a jump out of
// the block that awaited is not reached from that suspension.
sim::Task<Reply>
Manager::serveTouch(std::uint64_t id)
{
    Reply reply;
    auto it = shared_.find(id);
    if (it == shared_.end())
        co_return reply;
    const std::shared_ptr<Obj> held = it->second;
    reply.size = co_await getAttr(held->components[0]);
    it = shared_.find(id);
    if (it != shared_.end())
        it->second->stripe = reply.size;
    Obj *obj = find(id);
    if (obj != nullptr && obj->stripe == 0) {
        reply.size = co_await getAttr(0);
        co_return reply;
    }
    if (obj != nullptr)
        obj->stripe = 1;
    co_return reply;
}

} // namespace fx
