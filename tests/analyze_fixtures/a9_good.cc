// Fixture: clean counterparts to a9_bad.cc — every value() call is
// preceded by a guard in its enclosing function, or its receiver is
// not a Result. Zero findings expected.
#include <optional>
#include <vector>

namespace fx {

template <typename T> struct Result
{
    bool ok() const;
    explicit operator bool() const;
    T &value();
};

struct Counter
{
    unsigned long value() const;
};

struct Node
{
    Counter count;
};

Result<int> fetch();

int
okCheck()
{
    auto r = fetch();
    if (!r.ok())
        return -1;
    return r.value();
}

int
truthiness()
{
    auto r = fetch();
    if (!r)
        return -1;
    return r.value();
}

int
ternary()
{
    auto r = fetch();
    return r.ok() ? r.value() : 0;
}

int
asserted()
{
    auto r = fetch();
    NASD_ASSERT(r, "fetch failed");
    return r.value();
}

int
retried()
{
    auto r = fetch();
    while (!r)
        r = fetch();
    return r.value();
}

int
indexed(std::vector<Result<int>> &rs, int i)
{
    if (!rs[i].ok())
        return -1;
    return rs[i].value();
}

int
optional(std::optional<int> o)
{
    return o.has_value() ? o.value() : 0;
}

int
guardBeforeLambda()
{
    auto r = fetch();
    if (!r.ok())
        return -1;
    auto get = [&r] { return r.value(); };
    return get();
}

unsigned long
instruments(Counter &served, Node *node, Node &n)
{
    // Registry instrument references and member chains are not
    // Results.
    return served.value() + node->count.value() + n.count.value();
}

} // namespace fx
