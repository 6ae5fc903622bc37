#include "storage/update_journal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>

#include "common/fault_injection.h"
#include "storage/atomic_file.h"
#include "storage/checksum.h"

namespace topl {

namespace {

constexpr char kJournalMagic[8] = {'T', 'O', 'P', 'L', 'J', 'R', 'N', '1'};
constexpr std::uint32_t kJournalVersion = 1;
constexpr std::uint32_t kRecordMagic = 0x544A5243;  // "TJRC"
constexpr std::size_t kHeaderBytes = 16;            // magic + version + reserved
constexpr std::size_t kRecordHeaderBytes = 16;      // magic + length + checksum

// A single delta can never legitimately approach this; anything larger is a
// corrupt length field, and trusting it would make Replay allocate garbage.
constexpr std::uint32_t kMaxPayloadBytes = 1u << 30;

std::string Errno(const char* what, const std::string& path) {
  return std::string(what) + " " + path + ": " + std::strerror(errno);
}

Status WriteFully(int fd, const void* data, std::size_t size,
                  const std::string& path) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    const ::ssize_t n = ::write(fd, p, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(Errno("write error on", path));
    }
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return Status::OK();
}

// resize + memcpy rather than a range insert: GCC 12 mis-sizes the inlined
// insert and warns (-Wstringop-overflow) in optimized builds.
void PutU32(std::vector<std::uint8_t>* out, std::uint32_t v) {
  const std::size_t at = out->size();
  out->resize(at + sizeof(v));
  std::memcpy(out->data() + at, &v, sizeof(v));
}

void PutF32(std::vector<std::uint8_t>* out, float v) {
  PutU32(out, std::bit_cast<std::uint32_t>(v));
}

// Bounds-checked little-endian cursor over an untrusted payload.
class Cursor {
 public:
  Cursor(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  bool ReadU32(std::uint32_t* out) {
    if (size_ - pos_ < sizeof(*out)) return false;
    std::memcpy(out, data_ + pos_, sizeof(*out));
    pos_ += sizeof(*out);
    return true;
  }

  bool ReadF32(float* out) {
    if (size_ - pos_ < sizeof(*out)) return false;
    std::memcpy(out, data_ + pos_, sizeof(*out));
    pos_ += sizeof(*out);
    return true;
  }

  std::size_t remaining() const { return size_ - pos_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

struct RecordScan {
  std::uint64_t records = 0;
  std::uint64_t valid_bytes = 0;  // header + every intact record
};

// Walks the record chain of `bytes` (a whole journal file) and returns how
// far it stays intact. Decode errors are not scanned for here — framing and
// checksum are what a torn append can break; payload semantics are the
// replayer's concern.
Result<RecordScan> ScanRecords(const std::vector<std::uint8_t>& bytes,
                               const std::string& path) {
  if (bytes.size() < kHeaderBytes) {
    return Status::Corruption(path + ": journal shorter than its header");
  }
  if (std::memcmp(bytes.data(), kJournalMagic, sizeof(kJournalMagic)) != 0) {
    return Status::Corruption(path + ": bad journal magic");
  }
  std::uint32_t version = 0;
  std::memcpy(&version, bytes.data() + sizeof(kJournalMagic), sizeof(version));
  if (version != kJournalVersion) {
    return Status::Corruption(path + ": unsupported journal version " +
                              std::to_string(version));
  }
  RecordScan scan;
  scan.valid_bytes = kHeaderBytes;
  std::size_t pos = kHeaderBytes;
  while (pos + kRecordHeaderBytes <= bytes.size()) {
    std::uint32_t magic = 0;
    std::uint32_t length = 0;
    std::uint64_t checksum = 0;
    std::memcpy(&magic, bytes.data() + pos, sizeof(magic));
    std::memcpy(&length, bytes.data() + pos + 4, sizeof(length));
    std::memcpy(&checksum, bytes.data() + pos + 8, sizeof(checksum));
    if (magic != kRecordMagic || length > kMaxPayloadBytes) break;
    if (bytes.size() - pos - kRecordHeaderBytes < length) break;  // torn tail
    const std::uint8_t* payload = bytes.data() + pos + kRecordHeaderBytes;
    if (XXH64(payload, length) != checksum) break;
    pos += kRecordHeaderBytes + length;
    scan.records += 1;
    scan.valid_bytes = pos;
  }
  return scan;
}

Result<std::vector<std::uint8_t>> ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::IOError("cannot open " + path);
  const std::streamsize size = in.tellg();
  in.seekg(0);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  if (size > 0 && !in.read(reinterpret_cast<char*>(bytes.data()), size)) {
    return Status::IOError("read error on " + path);
  }
  return bytes;
}

}  // namespace

std::vector<std::uint8_t> UpdateJournal::EncodeDelta(const GraphDelta& delta) {
  std::vector<std::uint8_t> out;
  out.reserve(16 + delta.NumOps() * 16);
  PutU32(&out, static_cast<std::uint32_t>(delta.edge_deletes.size()));
  PutU32(&out, static_cast<std::uint32_t>(delta.edge_inserts.size()));
  PutU32(&out, static_cast<std::uint32_t>(delta.keyword_adds.size()));
  PutU32(&out, static_cast<std::uint32_t>(delta.keyword_removes.size()));
  for (const GraphDelta::EdgeRef& e : delta.edge_deletes) {
    PutU32(&out, e.u);
    PutU32(&out, e.v);
  }
  for (const GraphDelta::EdgeInsert& e : delta.edge_inserts) {
    PutU32(&out, e.u);
    PutU32(&out, e.v);
    PutF32(&out, e.prob_uv);
    PutF32(&out, e.prob_vu);
  }
  for (const GraphDelta::KeywordChange& c : delta.keyword_adds) {
    PutU32(&out, c.v);
    PutU32(&out, c.w);
  }
  for (const GraphDelta::KeywordChange& c : delta.keyword_removes) {
    PutU32(&out, c.v);
    PutU32(&out, c.w);
  }
  return out;
}

Result<GraphDelta> UpdateJournal::DecodeDelta(const std::uint8_t* data,
                                              std::size_t size) {
  Cursor cursor(data, size);
  std::uint32_t counts[4] = {};
  for (std::uint32_t& c : counts) {
    if (!cursor.ReadU32(&c)) {
      return Status::Corruption("journal record truncated in count header");
    }
  }
  // Reject overflowing counts before any allocation: the four arrays must
  // fit exactly in the remaining payload.
  const std::uint64_t need = 8ull * counts[0] + 16ull * counts[1] +
                             8ull * counts[2] + 8ull * counts[3];
  if (need != cursor.remaining()) {
    return Status::Corruption(
        "journal record payload does not match its op counts");
  }
  GraphDelta delta;
  delta.edge_deletes.resize(counts[0]);
  delta.edge_inserts.resize(counts[1]);
  delta.keyword_adds.resize(counts[2]);
  delta.keyword_removes.resize(counts[3]);
  for (GraphDelta::EdgeRef& e : delta.edge_deletes) {
    if (!cursor.ReadU32(&e.u) || !cursor.ReadU32(&e.v)) {
      return Status::Corruption("journal record truncated in edge deletes");
    }
  }
  for (GraphDelta::EdgeInsert& e : delta.edge_inserts) {
    if (!cursor.ReadU32(&e.u) || !cursor.ReadU32(&e.v) ||
        !cursor.ReadF32(&e.prob_uv) || !cursor.ReadF32(&e.prob_vu)) {
      return Status::Corruption("journal record truncated in edge inserts");
    }
  }
  for (GraphDelta::KeywordChange& c : delta.keyword_adds) {
    if (!cursor.ReadU32(&c.v) || !cursor.ReadU32(&c.w)) {
      return Status::Corruption("journal record truncated in keyword adds");
    }
  }
  for (GraphDelta::KeywordChange& c : delta.keyword_removes) {
    if (!cursor.ReadU32(&c.v) || !cursor.ReadU32(&c.w)) {
      return Status::Corruption("journal record truncated in keyword removes");
    }
  }
  return delta;
}

Result<std::unique_ptr<UpdateJournal>> UpdateJournal::Open(
    const std::string& path, OpenInfo* info) {
  TOPL_FAULT_POINT("journal.open");
  OpenInfo local;
  if (!std::filesystem::exists(path)) {
    // Fresh journal: header written through the atomic writer so a crash
    // during creation leaves no half-written header behind.
    Result<AtomicFile> file = AtomicFile::Create(path);
    if (!file.ok()) return file.status();
    std::uint8_t header[kHeaderBytes] = {};
    std::memcpy(header, kJournalMagic, sizeof(kJournalMagic));
    std::memcpy(header + sizeof(kJournalMagic), &kJournalVersion,
                sizeof(kJournalVersion));
    TOPL_RETURN_IF_ERROR(file->Append(header, sizeof(header)));
    TOPL_RETURN_IF_ERROR(file->Commit());
    local.created = true;
  }
  Result<std::vector<std::uint8_t>> bytes = ReadWholeFile(path);
  if (!bytes.ok()) return bytes.status();
  Result<RecordScan> scan = ScanRecords(*bytes, path);
  if (!scan.ok()) return scan.status();
  local.records = scan->records;
  local.torn_bytes_discarded = bytes->size() - scan->valid_bytes;

  const int fd = ::open(path.c_str(), O_WRONLY);
  if (fd < 0) {
    return Status::IOError(Errno("cannot open journal for append", path));
  }
  if (local.torn_bytes_discarded > 0) {
    // Heal the torn tail before appending: new records must start at the
    // commit point, not after garbage.
    if (::ftruncate(fd, static_cast<::off_t>(scan->valid_bytes)) != 0) {
      const Status status = Status::IOError(Errno("cannot truncate", path));
      ::close(fd);
      return status;
    }
    if (::fsync(fd) != 0) {
      const Status status = Status::IOError(Errno("fsync", path));
      ::close(fd);
      return status;
    }
  }
  if (::lseek(fd, static_cast<::off_t>(scan->valid_bytes), SEEK_SET) < 0) {
    const Status status = Status::IOError(Errno("cannot seek", path));
    ::close(fd);
    return status;
  }
  if (info != nullptr) *info = local;
  return std::unique_ptr<UpdateJournal>(
      new UpdateJournal(path, fd, scan->records));
}

UpdateJournal::~UpdateJournal() {
  if (fd_ >= 0) ::close(fd_);
}

Status UpdateJournal::Append(const GraphDelta& delta) {
  if (fd_ < 0) return Status::Internal("journal is closed");
  const std::vector<std::uint8_t> payload = EncodeDelta(delta);
  std::uint8_t header[kRecordHeaderBytes];
  const std::uint32_t length = static_cast<std::uint32_t>(payload.size());
  const std::uint64_t checksum = XXH64(payload.data(), payload.size());
  std::memcpy(header, &kRecordMagic, sizeof(kRecordMagic));
  std::memcpy(header + 4, &length, sizeof(length));
  std::memcpy(header + 8, &checksum, sizeof(checksum));

  switch (fault::Check("journal.append")) {
    case fault::Action::kIOError:
      return fault::InjectedError("journal.append");
    case fault::Action::kShortWrite: {
      // Persist a torn record — header plus half the payload — then fail.
      // The next Open() must truncate exactly this tail away.
      (void)WriteFully(fd_, header, sizeof(header), path_);
      (void)WriteFully(fd_, payload.data(), payload.size() / 2, path_);
      (void)::fsync(fd_);
      return fault::InjectedError("journal.append");
    }
    default:
      break;
  }

  TOPL_RETURN_IF_ERROR(WriteFully(fd_, header, sizeof(header), path_));
  TOPL_RETURN_IF_ERROR(WriteFully(fd_, payload.data(), payload.size(), path_));
  TOPL_FAULT_POINT("journal.fsync");
  if (::fsync(fd_) != 0) {
    return Status::IOError(Errno("fsync", path_));
  }
  num_records_ += 1;
  return Status::OK();
}

Status UpdateJournal::Truncate() {
  if (fd_ < 0) return Status::Internal("journal is closed");
  if (::ftruncate(fd_, static_cast<::off_t>(kHeaderBytes)) != 0) {
    return Status::IOError(Errno("cannot truncate", path_));
  }
  if (::lseek(fd_, static_cast<::off_t>(kHeaderBytes), SEEK_SET) < 0) {
    return Status::IOError(Errno("cannot seek", path_));
  }
  if (::fsync(fd_) != 0) {
    return Status::IOError(Errno("fsync", path_));
  }
  num_records_ = 0;
  return Status::OK();
}

Result<std::vector<GraphDelta>> UpdateJournal::Replay(
    const std::string& path, std::uint64_t* torn_bytes) {
  TOPL_FAULT_POINT("journal.replay");
  if (torn_bytes != nullptr) *torn_bytes = 0;
  if (!std::filesystem::exists(path)) return std::vector<GraphDelta>{};
  Result<std::vector<std::uint8_t>> bytes = ReadWholeFile(path);
  if (!bytes.ok()) return bytes.status();
  Result<RecordScan> scan = ScanRecords(*bytes, path);
  if (!scan.ok()) return scan.status();
  if (torn_bytes != nullptr) {
    *torn_bytes = bytes->size() - scan->valid_bytes;
  }
  std::vector<GraphDelta> deltas;
  deltas.reserve(scan->records);
  std::size_t pos = kHeaderBytes;
  for (std::uint64_t i = 0; i < scan->records; ++i) {
    std::uint32_t length = 0;
    std::memcpy(&length, bytes->data() + pos + 4, sizeof(length));
    Result<GraphDelta> delta =
        DecodeDelta(bytes->data() + pos + kRecordHeaderBytes, length);
    if (!delta.ok()) {
      // Framing + checksum passed but the payload is semantically malformed:
      // that is corruption of a committed record, not a torn tail — refuse
      // to replay past it silently.
      return Status::Corruption(path + ": record " + std::to_string(i) + ": " +
                                delta.status().message());
    }
    deltas.push_back(std::move(*delta));
    pos += kRecordHeaderBytes + length;
  }
  return deltas;
}

}  // namespace topl
