/**
 * @file
 * Fixture: a comment block, then the include guard. Zero findings
 * expected.
 */
#ifndef FX_A11_GOOD_H_
#define FX_A11_GOOD_H_

struct Guarded
{
};

#endif // FX_A11_GOOD_H_
