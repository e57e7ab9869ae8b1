// The return of redirecting a request to the SSD — Equation (3).
//
// For any request, the base return is
//
//     T_ret = T_if_disk - T_if_ssd
//
// (positive means serving it on the disk would slow the disk down, so the
// SSD should take it).  For a *fragment*, the return is underestimated when
// this server is currently the slowest among the servers holding the
// fragment's siblings: serving the fragment faster then speeds up the whole
// parent request, and through it every sibling server's productivity.  The
// paper models that striping-magnification bonus as
//
//     T_ret_frag = T_ret + (T_max - T_sec_max) * n
//
// applied only when this server's T is the maximum among the siblings'
// servers' T values (broadcast by the metadata server); n is the number of
// sibling sub-requests.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/service_time.hpp"
#include "core/siblings.hpp"
#include "sim/units.hpp"

namespace ibridge::core {

using sim::ServerId;

/// A snapshot of all servers' T values as last broadcast by the metadata
/// server (ms; index = server id).
using TBoard = std::vector<double>;

struct ReturnEstimate {
  double ret_ms = 0.0;          ///< T_ret or T_ret_frag
  bool boosted = false;         ///< Equation (3) bonus applied
};

class ReturnEstimator {
 public:
  explicit ReturnEstimator(bool fragment_boost = true)
      : fragment_boost_(fragment_boost) {}

  /// Base return for any request (Eq. 1 minus Eq. 2).
  static double base_return(const ServiceTimeModel& model, std::int64_t lbn,
                            Bytes bytes, storage::IoDirection dir) {
    return model.t_if_disk(lbn, bytes, dir) - model.t_if_ssd();
  }

  /// Full estimate.  `self` is this server's id; `siblings` describes the
  /// servers holding the fragment's sibling sub-requests (empty for
  /// non-fragments).  The descriptor enumerates the same servers in the
  /// same order as the materialized list it replaced, so the arithmetic —
  /// including the skip of entries equal to `self` and n = sibling count —
  /// is unchanged.
  ReturnEstimate estimate(const ServiceTimeModel& model, std::int64_t lbn,
                          Bytes bytes, storage::IoDirection dir,
                          bool is_fragment, ServerId self,
                          const SiblingSet& siblings,
                          const TBoard& board) const {
    ReturnEstimate e;
    e.ret_ms = base_return(model, lbn, bytes, dir);
    if (!is_fragment || !fragment_boost_ || siblings.empty()) return e;

    // Local T is the live value; peers come from the (possibly stale)
    // broadcast board — exactly the information a real server has.
    const double t_self = model.t();
    double t_max = t_self;
    double t_sec = 0.0;
    bool self_is_max = true;
    siblings.for_each_sibling([&](ServerId s) {
      if (s == self) return;
      const double t = s.index() >= 0 && std::cmp_less(s.index(), board.size())
                           ? board[static_cast<std::size_t>(s.index())]
                           : 0.0;
      if (t > t_max) {
        self_is_max = false;
        t_sec = std::max(t_sec, t_max);
        t_max = t;
      } else {
        t_sec = std::max(t_sec, t);
      }
    });
    if (!self_is_max) return e;  // bottleneck is elsewhere: no bonus

    const auto n = static_cast<double>(siblings.size());
    e.ret_ms += (t_max - t_sec) * n;
    e.boosted = true;
    return e;
  }

  bool fragment_boost() const { return fragment_boost_; }

 private:
  bool fragment_boost_;
};

}  // namespace ibridge::core
