// Fixture: a header with no include guard. Comments before the first
// token are fine; the first tokens must be the guard.
#include <cstdint> // EXPECT[A11]

namespace fx {

struct Unguarded
{
    std::uint64_t x;
};

} // namespace fx
