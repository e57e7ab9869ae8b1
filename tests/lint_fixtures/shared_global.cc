// Fixture: a mutable namespace-scope global without a shard-owned /
// shared-ok annotation must trip the shared-global rule (once) — hidden
// shared state is exactly what no shard of the sim core can own.
namespace fixture {

inline int g_request_hwm = 0;

inline void note(int requests) {
  if (requests > g_request_hwm) g_request_hwm = requests;
}

}  // namespace fixture
