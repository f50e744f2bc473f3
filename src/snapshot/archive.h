// Versioned, checksummed binary serialization for simulation snapshots.
//
// An archive is a flat sequence of named *sections*. Every scalar is
// written in explicit little-endian byte order (the format is a file
// format, not a memory dump), and every section carries an RFC 1071
// checksum over its payload (reusing src/common/checksum.h), so a
// truncated or bit-flipped snapshot is rejected before any of it is
// interpreted. The layout:
//
//   [magic "R2C2SNAP"] [u32 format version] [u32 section count]
//   section*:
//     [u16 tag length] [tag bytes] [u64 payload length] [u16 checksum]
//     [payload bytes]
//
// ArchiveReader verifies the header, walks the section table and checks
// every checksum in its constructor — by the time a load() routine reads
// its first field, the whole file has already been authenticated. Reads
// are bounds-checked against the open section and close_section() insists
// the payload was fully consumed, so format drift between writer and
// reader surfaces as a SnapshotError, never as silently misaligned state.
//
// Loads follow a parse-then-commit discipline on top of this: every section
// is read into staged values first and the target object is mutated last,
// so a failed load leaves the target untouched. The field walks in
// snapshot/persist.h implement it once for every snapshotted class.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace r2c2::snapshot {

// Format version of the archive container *and* of the section contents
// written by the field walks in this tree. Bump on any layout change; the
// reader rejects every other version with a clear error.
inline constexpr std::uint32_t kFormatVersion = 2;

inline constexpr char kMagic[8] = {'R', '2', 'C', '2', 'S', 'N', 'A', 'P'};

// Every snapshot failure — corrupt file, wrong version, missing section,
// over- or under-read payload — throws this.
class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what) : std::runtime_error(what) {}
};

class ArchiveWriter {
 public:
  ArchiveWriter();

  // Sections do not nest. Tags must be unique within one archive.
  void begin_section(std::string_view tag);
  void end_section();

  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  void f64(double v);  // IEEE-754 bits, little-endian (bit-exact round-trip)
  void bytes(std::span<const std::uint8_t> data);
  void str(std::string_view s);  // u32 length + bytes

  // Seals the archive (writes the header + section table) and returns the
  // serialized bytes. The writer is spent afterwards.
  std::vector<std::uint8_t> finish();
  // finish() + write to `path`; throws SnapshotError on I/O failure.
  void write_file(const std::string& path);

 private:
  struct Section {
    std::string tag;
    std::vector<std::uint8_t> payload;
  };

  std::vector<std::uint8_t>& payload();

  std::vector<Section> sections_;
  bool in_section_ = false;
  bool finished_ = false;
};

class ArchiveReader {
 public:
  // Takes ownership of the raw bytes; verifies magic, version, the section
  // table and every section checksum. Throws SnapshotError on any problem.
  explicit ArchiveReader(std::vector<std::uint8_t> data);

  static ArchiveReader from_file(const std::string& path);

  // Positions the read cursor at the start of the named section; throws if
  // the section is absent or another section is still open.
  void open_section(std::string_view tag);
  // Throws if the section payload was not consumed exactly.
  void close_section();
  bool has_section(std::string_view tag) const;

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64();
  double f64();
  void bytes(std::span<std::uint8_t> out);
  std::string str();

  // Remaining unread bytes of the open section (for sanity checks).
  std::uint64_t remaining() const;

 private:
  struct SectionEntry {
    std::size_t offset = 0;  // payload start within data_
    std::size_t length = 0;
  };

  const std::uint8_t* need(std::size_t n);  // bounds-checked cursor advance

  std::vector<std::uint8_t> data_;
  std::vector<std::pair<std::string, SectionEntry>> sections_;
  std::string open_tag_;
  std::size_t cursor_ = 0;
  std::size_t section_end_ = 0;
  bool in_section_ = false;
};

}  // namespace r2c2::snapshot
