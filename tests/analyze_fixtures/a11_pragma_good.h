// Fixture: #pragma once is an include guard too. Zero findings
// expected.
#pragma once

struct Guarded
{
};
