// Fixture: Result::value() with no ok-check earlier in the enclosing
// function. value() panics on an error Result, so every one of these
// is a latent crash. The guard scan stops at the function boundary:
// an ok() check in a sibling method, a comment, or a string does not
// count.
#include <string>
#include <vector>

namespace fx {

template <typename T> struct Result
{
    bool ok() const;
    T &value();
};

Result<int> fetch();
void log(const std::string &msg);

int
unguarded()
{
    auto r = fetch();
    return r.value(); // EXPECT[A9]
}

int
indexed(std::vector<Result<int>> &rs, int i)
{
    return rs[i].value(); // EXPECT[A9]
}

int
guardOnlyInComment()
{
    auto r = fetch();
    // r.ok() was checked by the caller
    log("if (r) ...");
    return r.value(); // EXPECT[A9]
}

int
guardAfterUse()
{
    auto r = fetch();
    const int v = r.value(); // EXPECT[A9]
    return r.ok() ? v : 0;
}

class Reader
{
  public:
    // Indented inline methods: the previous method's guard belongs to
    // a different function.
    bool probe() { auto r = fetch(); return r.ok(); }
    int read() { auto r = fetch(); return r.value(); } // EXPECT[A9]
};

} // namespace fx
