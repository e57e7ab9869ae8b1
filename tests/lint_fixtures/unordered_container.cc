// Fixture: a std::unordered_* container in src/ must trip the
// unordered-container rule (once): any walk over it follows hash order.
#include <unordered_map>

namespace fixture {

struct Registry {
  std::unordered_map<int, int> table_;
};

}  // namespace fixture
