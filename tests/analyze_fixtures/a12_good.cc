// Fixture: clean counterparts to a12_bad.cc — counters are registry
// references. Zero findings expected.
#include <string>

namespace util {

struct Counter
{
    void add(unsigned long n = 1);
};

} // namespace util

namespace fx {

util::Counter &lookup(const std::string &path);

class Drive
{
  public:
    Drive() : reads_(lookup("drive/reads")), writes_(&lookup("drive/w")) {}

  private:
    util::Counter &reads_;
    util::Counter *writes_;
};

} // namespace fx
