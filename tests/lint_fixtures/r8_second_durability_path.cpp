// oaklint fixture — R8: one durability path.  The WAL hooks, rotate-then-pin
// checkpoint, manifest generations and recovery replay live in src/dur/ and
// detail::Durability (oak/durability.hpp), which both map front ends hold.
// A front end that opens its own WAL or writes its own manifest is a second
// copy of that lifecycle, with its own chance to get the commit order wrong.
//
// oaklint-expect: R8
#include <cstdint>
#include <memory>
#include <string>

namespace oak {
namespace dur {
class Wal {
 public:
  Wal(std::string dir, std::uint64_t startSeq);
};
struct Manifest {
  std::uint64_t cpSeq = 0;
  void store(const std::string& dir) const;
};
}  // namespace dur

class MyFrontEnd {
 public:
  explicit MyFrontEnd(const std::string& dir)
      : wal_(std::make_unique<dur::Wal>(dir, 1)) {  // BAD: a private WAL
    dur::Manifest m;  // BAD: a private manifest commit
    m.store(dir);
  }

 private:
  std::unique_ptr<dur::Wal> wal_;
};
}  // namespace oak
