// Client-side fragment identification.
//
// The paper instruments PVFS2's io_datafile_setup_msgpairs() so that when a
// parent request is split into sub-requests, every sub-request smaller than
// the fragment threshold whose parent spans more than one server is flagged
// as a fragment, and the identifiers of the servers holding its sibling
// sub-requests are attached.  The data servers use that information for the
// Equation (3) return boost.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "core/config.hpp"
#include "core/siblings.hpp"
#include "sim/units.hpp"

namespace ibridge::core {

/// Decomposition-independent view of one sub-request, as produced by the
/// striping layout.  (core does not depend on pvfs; pvfs adapts its
/// SubRequestSpec into this.)
struct TaggedSubRequest {
  sim::ServerId server;
  sim::Offset server_offset;
  sim::Bytes length;
  bool fragment = false;
  /// The parent's sibling descriptor (set only on fragments).
  SiblingSet siblings;
};

class FragmentTagger {
 public:
  explicit FragmentTagger(sim::Bytes fragment_threshold)
      : threshold_(fragment_threshold) {}

  /// Annotate the pieces of one parent request into `out` (cleared first —
  /// pass a pooled vector for an allocation-free steady state).  `pieces` is
  /// the per-piece decomposition: (server, server_offset, length) triples in
  /// stripe order; `ring` is the striping server count, the modulus the
  /// SiblingSet enumerates siblings with.
  template <typename Piece>
  void tag_into(const std::vector<Piece>& pieces, int ring,
                std::vector<TaggedSubRequest>& out) const {
    out.clear();
    out.reserve(pieces.size());
    bool multi_server = false;
    for (const auto& p : pieces) {
      if (!out.empty() && p.server != out.front().server) multi_server = true;
      out.push_back({p.server, p.server_offset, p.length, false, {}});
    }
    if (!multi_server) return;  // single-server parent: no fragments

    const auto count = static_cast<std::uint32_t>(out.size());
    const sim::ServerId first = out.front().server;
    for (std::size_t i = 0; i < out.size(); ++i) {
      // A multi-server parent's pieces follow the round-robin ring — the
      // invariant that lets four integers stand in for the sibling list.
      assert(out[i].server.index() ==
                 static_cast<int>(
                     (static_cast<std::uint32_t>(first.index()) + i) %
                     static_cast<std::uint32_t>(ring)) &&
             "pieces must be in stripe order over the striping ring");
      if (out[i].length >= threshold_) continue;
      out[i].fragment = true;
      out[i].siblings = SiblingSet{first, static_cast<std::uint32_t>(ring),
                                   count, static_cast<std::uint32_t>(i)};
    }
  }

  /// Convenience wrapper returning a fresh vector (tests, cold paths).
  template <typename Piece>
  std::vector<TaggedSubRequest> tag(const std::vector<Piece>& pieces,
                                    int ring) const {
    std::vector<TaggedSubRequest> out;
    tag_into(pieces, ring, out);
    return out;
  }

  sim::Bytes threshold() const { return threshold_; }

 private:
  sim::Bytes threshold_;
};

}  // namespace ibridge::core
