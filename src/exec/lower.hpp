// Lowering pass: compiled-program IR -> flat pre-resolved LoweredProgram.
//
// Runs once at FusedExecutor construction. Lowering is total: every
// compiled loop, term and reset — the top-level action sequence included —
// has a lowered counterpart, so the lowered program is the only form the
// executor runs.
#pragma once

#include "exec/compiled_program.hpp"
#include "exec/lowered_program.hpp"

namespace spttn {

lowered::LoweredProgram lower_program(const cprog::CompiledView& prog);

}  // namespace spttn
