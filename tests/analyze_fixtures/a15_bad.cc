// Fixture: a coroutine uses a pointer, reference or iterator into a
// member table after a co_await (the shape of CheopsManager's
// serveGetSize before it looked its object up again): a concurrent
// remove may erase the entry while the handler is suspended.
#include <cstdint>
#include <map>
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
};

sim::Task<Reply>
Manager::serveGetSize(std::uint64_t id)
{
    Reply reply;
    const Obj *obj = find(id);
    if (obj == nullptr)
        co_return reply;
    for (std::size_t k = 0; k < obj->components.size(); ++k) { // EXPECT[A15]
        const std::uint64_t csize = co_await getAttr(obj->components[k]);
        reply.size += csize * obj->stripe;
    }
    co_return reply;
}

sim::Task<Reply>
Manager::serveRemove(std::uint64_t id)
{
    Reply reply;
    const auto it = objects_.find(id);
    if (it == objects_.end())
        co_return reply;
    reply.size = co_await getAttr(it->second.components[0]);
    objects_.erase(it); // EXPECT[A15]
    co_return reply;
}

sim::Task<Reply>
Manager::serveTouch(std::uint64_t id)
{
    Reply reply;
    Obj &obj = objects_[id];
    reply.size = co_await getAttr(0);
    obj.stripe = reply.size; // EXPECT[A15]
    co_return reply;
}

} // namespace fx
