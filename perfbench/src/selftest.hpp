#pragma once

namespace perfbench {

/// Feeds the output checks corrupted outputs (a perturbed element, a
/// swapped factor, a falling fit sequence) next to clean controls and
/// verifies each corruption is counted as a failed op. Returns 0 when
/// every case is caught and every control passes.
int run_self_test();

}  // namespace perfbench
