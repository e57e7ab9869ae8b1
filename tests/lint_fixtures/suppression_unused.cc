// Fixture: a well-formed suppression that silences nothing must trip the
// annotation audit (once), so stale escapes get deleted.
namespace fixture {

inline const int plain = 0;  // lint: pointer-key-ok (nothing here needs this)

}  // namespace fixture
