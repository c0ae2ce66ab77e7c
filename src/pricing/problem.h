// The fixed-deadline pricing problem specification (paper §2.3, §3.1).

#ifndef CROWDPRICE_PRICING_PROBLEM_H_
#define CROWDPRICE_PRICING_PROBLEM_H_

#include "util/status.h"

namespace crowdprice::pricing {

/// A batch of N identical tasks that must be finished within NT discrete
/// time intervals. The MDP state is (n, t): n tasks remaining at the start
/// of interval t (paper Fig. 2); the terminal cost at t = NT is
///   n > 0 ?  (n + extra_penalty_alpha) * penalty_cents  :  0,
/// which is the paper's n * Penalty for extra_penalty_alpha = 0 and the
/// §3.3 extended form otherwise.
struct DeadlineProblem {
  /// N: batch size.
  int num_tasks = 0;
  /// NT: number of equal time intervals before the deadline.
  int num_intervals = 0;
  /// Penalty per unsolved task at the deadline (cents).
  double penalty_cents = 0.0;
  /// The alpha of the §3.3 extended penalty; 0 disables.
  double extra_penalty_alpha = 0.0;
  /// Poisson tail-truncation threshold epsilon (§3.2); transition terms
  /// beyond the first s0 with Pr[X >= s0] <= epsilon are lumped.
  double truncation_epsilon = 1e-9;

  Status Validate() const;

  double TerminalPenalty(int remaining) const {
    if (remaining <= 0) return 0.0;
    return (static_cast<double>(remaining) + extra_penalty_alpha) *
           penalty_cents;
  }
};

}  // namespace crowdprice::pricing

#endif  // CROWDPRICE_PRICING_PROBLEM_H_
