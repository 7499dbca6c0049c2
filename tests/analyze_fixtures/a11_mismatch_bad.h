// Fixture: an #ifndef/#define pair that names two different macros
// guards nothing.
#ifndef FX_A11_MISMATCH_H_ // EXPECT[A11]
#define FX_A11_OTHER_H_

struct Mismatched
{
};

#endif
