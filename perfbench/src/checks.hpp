// Property checks of the decomposition drivers' outputs, recomputed by the
// benchmark from the models alone (no library numerics are reused).
#pragma once

#include <string>
#include <vector>

#include "apps/decompose.hpp"

namespace perfbench {

/// Fit recomputed with Gram matrices: 1 - sqrt(|T|^2 - 2<T,M> + |M|^2)/|T|.
double recompute_cp_fit(const spttn::CooTensor& t, const spttn::CpModel& m);
/// Observed-entry RMSE of a CP model.
double recompute_rmse(const spttn::CooTensor& t, const spttn::CpModel& m);

/// The reported fit equals the recomputed one.
bool check_cp_fit(const spttn::CooTensor& t, const spttn::CpModel& m,
                  double reported, std::string* why);
/// ALS fits never decrease, starting from `prev` (the last fit seen).
bool check_fits_rise(double prev, const std::vector<double>& fits,
                     std::string* why);
/// Factors orthonormal and core == T x U0^T x U1^T x U2^T.
bool check_hooi(const spttn::CooTensor& t, const spttn::TuckerModel& m,
                std::string* why);
/// rmse[0] equals the RMSE recomputed before the call; RMSE never rises.
bool check_completion(double rmse_before,
                      const spttn::CompletionReport& report,
                      std::string* why);

}  // namespace perfbench
