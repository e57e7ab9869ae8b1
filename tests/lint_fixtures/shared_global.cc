// Fixture: a mutable namespace-scope global without a shared-ok annotation
// must trip the shared-global rule (once) — simulations running on
// concurrent exp::Runner threads would race on it.
namespace fixture {

inline int g_request_hwm = 0;

inline void note(int requests) {
  if (requests > g_request_hwm) g_request_hwm = requests;
}

}  // namespace fixture
