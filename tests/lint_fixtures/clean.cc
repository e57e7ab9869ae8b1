// Fixture: near-misses for every rule; must produce zero diagnostics when
// lexed as a typed-core header (src/core/*.hpp).
#include <cstdint>
#include <map>

namespace fixture {

struct Meter {
  double time() const { return 0.0; }  // member named time() is fine
};

inline double elapsed_time(int) { return 0.0; }  // not the C time()

struct Clean {
  std::map<int, int> ordered_;  // ordered iteration is fine
  std::int64_t disk_lbn_ = 0;   // a sector address, not a byte count

  int sum() const {
    int s = 0;
    for (const auto& kv : ordered_) s += kv.second;
    return s;
  }

  double sample(const Meter& m) const { return m.time() + elapsed_time(1); }
};

}  // namespace fixture
