// Fixture: a mutating method call on shard-owned state from a module other
// than its declared owner must trip the shard-ownership rule (once).  The
// sharded sim core requires cross-shard mutations to travel through the
// owner's mailbox/barrier path (ShardGroup::post), never a direct container
// touch — a plain assignment is not the only way to meddle.
namespace fixture {

struct Mailbox {
  int pending = 0;
  void push_back(int) { pending = pending + 1; }
};

// lint: shard-owned (core)
inline Mailbox g_inbox = {};

inline void meddle() { g_inbox.push_back(7); }

}  // namespace fixture
