#include "snapshot/archive.h"

#include <bit>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/checksum.h"

namespace r2c2::snapshot {

namespace {

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xff));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xff));
}

std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (static_cast<std::uint16_t>(p[1]) << 8));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

}  // namespace

// --- ArchiveWriter --------------------------------------------------------

ArchiveWriter::ArchiveWriter() = default;

std::vector<std::uint8_t>& ArchiveWriter::payload() {
  if (!in_section_) throw SnapshotError("archive write outside any section");
  return sections_.back().payload;
}

void ArchiveWriter::begin_section(std::string_view tag) {
  if (finished_) throw SnapshotError("archive already finished");
  if (in_section_) throw SnapshotError("sections do not nest: '" + sections_.back().tag +
                                       "' still open when beginning '" + std::string(tag) + "'");
  for (const Section& s : sections_) {
    if (s.tag == tag) throw SnapshotError("duplicate archive section '" + std::string(tag) + "'");
  }
  sections_.push_back(Section{std::string(tag), {}});
  in_section_ = true;
}

void ArchiveWriter::end_section() {
  if (!in_section_) throw SnapshotError("end_section without an open section");
  in_section_ = false;
}

void ArchiveWriter::u8(std::uint8_t v) { payload().push_back(v); }
void ArchiveWriter::u16(std::uint16_t v) { put_u16(payload(), v); }
void ArchiveWriter::u32(std::uint32_t v) { put_u32(payload(), v); }
void ArchiveWriter::u64(std::uint64_t v) { put_u64(payload(), v); }
void ArchiveWriter::i64(std::int64_t v) { put_u64(payload(), static_cast<std::uint64_t>(v)); }
void ArchiveWriter::f64(double v) { put_u64(payload(), std::bit_cast<std::uint64_t>(v)); }

void ArchiveWriter::bytes(std::span<const std::uint8_t> data) {
  auto& out = payload();
  out.insert(out.end(), data.begin(), data.end());
}

void ArchiveWriter::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  auto& out = payload();
  out.insert(out.end(), s.begin(), s.end());
}

std::vector<std::uint8_t> ArchiveWriter::finish() {
  if (in_section_) throw SnapshotError("finish with section '" + sections_.back().tag + "' open");
  if (finished_) throw SnapshotError("archive already finished");
  finished_ = true;
  std::vector<std::uint8_t> out(std::begin(kMagic), std::end(kMagic));
  put_u32(out, kFormatVersion);
  put_u32(out, static_cast<std::uint32_t>(sections_.size()));
  for (Section& s : sections_) {
    put_u16(out, static_cast<std::uint16_t>(s.tag.size()));
    out.insert(out.end(), s.tag.begin(), s.tag.end());
    put_u64(out, s.payload.size());
    put_u16(out, internet_checksum(s.payload));
    out.insert(out.end(), s.payload.begin(), s.payload.end());
  }
  return out;
}

void ArchiveWriter::write_file(const std::string& path) {
  const std::vector<std::uint8_t> data = finish();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) throw SnapshotError("cannot open '" + path + "' for writing");
  const std::size_t written = std::fwrite(data.data(), 1, data.size(), f);
  const bool ok = (written == data.size()) && (std::fclose(f) == 0);
  if (!ok) throw SnapshotError("short write to '" + path + "'");
}

// --- ArchiveReader --------------------------------------------------------

ArchiveReader::ArchiveReader(std::vector<std::uint8_t> data) : data_(std::move(data)) {
  if (data_.size() < sizeof(kMagic) + 8) throw SnapshotError("snapshot truncated: no header");
  if (std::memcmp(data_.data(), kMagic, sizeof(kMagic)) != 0) {
    throw SnapshotError("bad magic: not an R2C2 snapshot");
  }
  const std::uint32_t version = get_u32(data_.data() + 8);
  if (version != kFormatVersion) {
    throw SnapshotError("unsupported snapshot format version " + std::to_string(version) +
                        " (this build reads version " + std::to_string(kFormatVersion) + ")");
  }
  const std::uint32_t count = get_u32(data_.data() + 12);
  std::size_t off = 16;
  for (std::uint32_t i = 0; i < count; ++i) {
    if (off + 2 > data_.size()) throw SnapshotError("snapshot truncated in section table");
    const std::uint16_t tag_len = get_u16(data_.data() + off);
    off += 2;
    if (off + tag_len + 10 > data_.size()) throw SnapshotError("snapshot truncated in section header");
    std::string tag(reinterpret_cast<const char*>(data_.data() + off), tag_len);
    off += tag_len;
    const std::uint64_t payload_len = get_u64(data_.data() + off);
    off += 8;
    const std::uint16_t expect = get_u16(data_.data() + off);
    off += 2;
    if (payload_len > data_.size() - off) {
      throw SnapshotError("snapshot truncated: section '" + tag + "' claims " +
                          std::to_string(payload_len) + " bytes past end of file");
    }
    const std::span<const std::uint8_t> payload(data_.data() + off,
                                                static_cast<std::size_t>(payload_len));
    if (internet_checksum(payload) != expect) {
      throw SnapshotError("checksum mismatch in section '" + tag + "': snapshot is corrupt");
    }
    sections_.emplace_back(std::move(tag),
                           SectionEntry{off, static_cast<std::size_t>(payload_len)});
    off += static_cast<std::size_t>(payload_len);
  }
  if (off != data_.size()) {
    throw SnapshotError("snapshot has " + std::to_string(data_.size() - off) +
                        " trailing bytes after the last section");
  }
}

ArchiveReader ArchiveReader::from_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) throw SnapshotError("cannot open snapshot '" + path + "'");
  std::vector<std::uint8_t> data;
  std::uint8_t buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) data.insert(data.end(), buf, buf + n);
  const bool err = std::ferror(f) != 0;
  std::fclose(f);
  if (err) throw SnapshotError("read error on snapshot '" + path + "'");
  return ArchiveReader(std::move(data));
}

bool ArchiveReader::has_section(std::string_view tag) const {
  for (const auto& [name, entry] : sections_) {
    if (name == tag) return true;
  }
  return false;
}

void ArchiveReader::open_section(std::string_view tag) {
  if (in_section_) {
    throw SnapshotError("section '" + open_tag_ + "' still open when opening '" +
                        std::string(tag) + "'");
  }
  for (const auto& [name, entry] : sections_) {
    if (name == tag) {
      open_tag_ = name;
      cursor_ = entry.offset;
      section_end_ = entry.offset + entry.length;
      in_section_ = true;
      return;
    }
  }
  throw SnapshotError("snapshot has no section '" + std::string(tag) + "'");
}

void ArchiveReader::close_section() {
  if (!in_section_) throw SnapshotError("close_section without an open section");
  if (cursor_ != section_end_) {
    throw SnapshotError("section '" + open_tag_ + "' has " +
                        std::to_string(section_end_ - cursor_) +
                        " unread bytes: reader/writer format mismatch");
  }
  in_section_ = false;
}

std::uint64_t ArchiveReader::remaining() const {
  if (!in_section_) return 0;
  return section_end_ - cursor_;
}

const std::uint8_t* ArchiveReader::need(std::size_t n) {
  if (!in_section_) throw SnapshotError("archive read outside any section");
  if (section_end_ - cursor_ < n) {
    throw SnapshotError("read past end of section '" + open_tag_ + "'");
  }
  const std::uint8_t* p = data_.data() + cursor_;
  cursor_ += n;
  return p;
}

std::uint8_t ArchiveReader::u8() { return *need(1); }
std::uint16_t ArchiveReader::u16() { return get_u16(need(2)); }
std::uint32_t ArchiveReader::u32() { return get_u32(need(4)); }
std::uint64_t ArchiveReader::u64() { return get_u64(need(8)); }
std::int64_t ArchiveReader::i64() { return static_cast<std::int64_t>(u64()); }
double ArchiveReader::f64() { return std::bit_cast<double>(u64()); }

void ArchiveReader::bytes(std::span<std::uint8_t> out) {
  const std::uint8_t* p = need(out.size());
  std::memcpy(out.data(), p, out.size());
}

std::string ArchiveReader::str() {
  const std::uint32_t len = u32();
  const std::uint8_t* p = need(len);
  return std::string(reinterpret_cast<const char*>(p), len);
}

}  // namespace r2c2::snapshot
