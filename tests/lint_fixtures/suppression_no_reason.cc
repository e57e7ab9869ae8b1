// Fixture: a suppression without its mandatory (reason) still silences the
// underlying rule, but the annotation audit must fire instead (once).
#include <map>

namespace fixture {

struct AddrIndex {
  std::map<int*, int> by_addr_;  // lint: pointer-key-ok
};

}  // namespace fixture
