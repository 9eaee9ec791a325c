#include "service/telemetry_log.h"

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "runtime/wire.h"

namespace vmcw::service {

namespace {

using wire::ByteWriter;
using wire::fnv1a64;
using wire::load_u32;
using wire::load_u64;

constexpr char kMagic[8] = {'V', 'M', 'C', 'W', 'T', 'W', 'L', '1'};
// magic + version + fleet-config hash; version 2 appends the base ordinal.
constexpr std::size_t kHeaderSizeV1 = 8 + 4 + 8;
constexpr std::size_t kHeaderSizeV2 = kHeaderSizeV1 + 8;

std::size_t header_size(std::uint32_t version) {
  return version == 2 ? kHeaderSizeV2 : kHeaderSizeV1;
}

/// Record scanner of a frame log: each record is one protocol frame,
/// decoded into `frames`.
RecordScanner frames_into(std::vector<Frame>& frames) {
  return [&frames](const std::uint8_t* data, std::size_t size) -> std::size_t {
    try {
      DecodedFrame d = decode_frame(data, size);
      frames.push_back(std::move(d.frame));
      return d.consumed;
    } catch (const std::exception&) {
      return 0;  // a frame decodes cleanly or it is the torn tail
    }
  };
}

std::vector<std::uint8_t> encode_header(std::uint64_t fleet_hash,
                                        std::uint32_t version,
                                        std::uint64_t base_ordinal) {
  ByteWriter header;
  for (const char c : kMagic) header.u8(static_cast<std::uint8_t>(c));
  header.u32(version);
  header.u64(fleet_hash);
  if (version == 2) header.u64(base_ordinal);
  return header.bytes();
}

/// Parse the header of a frame-log file held in `bytes` into `wal`
/// (version, fleet hash, base ordinal). False when it is not a frame WAL.
bool parse_header(const std::vector<std::uint8_t>& bytes, WalContents& wal) {
  const std::uint32_t version =
      bytes.size() < kHeaderSizeV1 ? 0 : load_u32(bytes.data() + 8);
  if ((version != 1 && version != 2) || bytes.size() < header_size(version) ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0)
    return false;
  wal.version = version;
  wal.fleet_hash = load_u64(bytes.data() + 12);
  wal.base_ordinal = version == 2 ? load_u64(bytes.data() + 20) : 0;
  return true;
}

}  // namespace

FrameLog::Recovery FrameLog::open(const std::string& path,
                                  std::uint64_t fleet_hash, bool resume,
                                  std::uint32_t version,
                                  std::uint64_t base_ordinal) {
  Recovery rec;
  static_cast<RecordLog::Recovery&>(rec) =
      log_.open(path, encode_header(fleet_hash, version, base_ordinal), resume,
                frames_into(rec.frames));
  if (!log_.is_open())
    throw std::runtime_error("FrameLog: cannot write header of " + path);
  if (!rec.resumed) rec.frames.clear();
  return rec;
}

bool FrameLog::append(const Frame& frame, bool sync) {
  const std::vector<std::uint8_t> record = encode_frame(frame);
  return log_.append(record.data(), record.size(), sync);
}

WalContents read_frame_log(const std::string& path) {
  std::vector<std::uint8_t> bytes;
  if (!read_file(path, bytes))
    throw std::runtime_error("read_frame_log: cannot read " + path);
  WalContents wal;
  if (!parse_header(bytes, wal))
    throw std::runtime_error("read_frame_log: not a frame WAL: " + path);
  const std::size_t off =
      scan_records(bytes, header_size(wal.version), frames_into(wal.frames));
  wal.torn_tail = off < bytes.size();
  wal.content_hash = fnv1a64(bytes.data(), off);
  return wal;
}

std::string segment_path(const std::string& path, std::size_t index) {
  char suffix[24];
  std::snprintf(suffix, sizeof(suffix), ".seg%06zu", index);
  return path + suffix;
}

namespace {

/// Segment files of the chain rooted at `path`, sorted by index. Paths are
/// rebuilt through segment_path so they compare equal to what the log
/// itself would create or unlink.
std::vector<std::pair<std::size_t, std::string>> list_segments(
    const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : path.substr(0, slash);
  const std::string stem =
      slash == std::string::npos ? path : path.substr(slash + 1);
  const std::string prefix = stem + ".seg";

  std::vector<std::pair<std::size_t, std::string>> out;
  DIR* d = ::opendir(dir.empty() ? "/" : dir.c_str());
  if (d == nullptr) return out;
  while (const dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name.size() != prefix.size() + 6 ||
        name.compare(0, prefix.size(), prefix) != 0)
      continue;
    std::size_t index = 0;
    bool digits = true;
    for (std::size_t i = prefix.size(); i < name.size(); ++i) {
      if (name[i] < '0' || name[i] > '9') {
        digits = false;
        break;
      }
      index = index * 10 + static_cast<std::size_t>(name[i] - '0');
    }
    if (digits && index > 0) out.emplace_back(index, segment_path(path, index));
  }
  ::closedir(d);
  std::sort(out.begin(), out.end());
  return out;
}

/// Combine per-segment content hashes into one chain hash (order-sensitive).
std::uint64_t chain_hash(std::uint64_t running, std::uint64_t segment) {
  std::uint8_t bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = (segment >> (8 * i)) & 0xff;
  return fnv1a64(bytes, sizeof(bytes), running);
}

/// The valid prefix of a segment chain, walked in index order and
/// stitched into one WalContents, reading and decoding each kept segment
/// once: each segment must carry a version-2 header with the head's fleet
/// hash (`fleet_hash` when given) and continue the index and base ordinal
/// before it. Headers are checked before any frame is decoded. The first
/// violation ends the walk; a torn segment is kept but ends it too — a
/// torn tail belongs to the last write, so anything after it was never
/// validly sealed.
struct Chain {
  WalContents wal;
  std::vector<std::pair<std::size_t, std::uint64_t>> kept;  ///< index, frames
  std::size_t tail_end = 0;  ///< intact byte length of the last kept segment
  std::uint64_t frames_decoded = 0;  ///< decode_frame calls that succeeded
  bool foreign_head = false;  ///< the head belongs to another fleet
};

Chain walk_chain(const std::vector<std::pair<std::size_t, std::string>>& files,
                 const std::uint64_t* fleet_hash) {
  Chain chain;
  WalContents& out = chain.wal;
  out.version = 2;
  out.content_hash = 1469598103934665603ull;
  std::vector<std::uint8_t> bytes;
  for (const auto& [index, file] : files) {
    WalContents seg;
    if (!read_file(file, bytes) || !parse_header(bytes, seg) ||
        seg.version != 2)
      break;
    if (chain.kept.empty()) {
      chain.foreign_head =
          fleet_hash != nullptr && seg.fleet_hash != *fleet_hash;
      if (chain.foreign_head) break;
      out.fleet_hash = seg.fleet_hash;
      out.base_ordinal = seg.base_ordinal;
    } else if (seg.fleet_hash != out.fleet_hash ||
               index != chain.kept.back().first + 1 ||
               seg.base_ordinal != out.base_ordinal + out.frames.size()) {
      break;  // gap, foreign file or base discontinuity
    }
    const std::size_t before = out.frames.size();
    chain.tail_end =
        scan_records(bytes, kHeaderSizeV2, frames_into(out.frames));
    const std::uint64_t decoded = out.frames.size() - before;
    chain.frames_decoded += decoded;
    chain.kept.emplace_back(index, decoded);
    out.content_hash =
        chain_hash(out.content_hash, fnv1a64(bytes.data(), chain.tail_end));
    out.torn_tail = chain.tail_end < bytes.size();
    if (out.torn_tail) break;
  }
  return chain;
}

}  // namespace

WalContents read_segmented_wal(const std::string& path) {
  Chain chain = walk_chain(list_segments(path), nullptr);
  if (chain.kept.empty())
    throw std::runtime_error("read_segmented_wal: no readable segments: " +
                             path);
  return std::move(chain.wal);
}

SegmentedFrameLog::Recovery SegmentedFrameLog::open(
    const std::string& path, std::uint64_t fleet_hash, bool resume,
    std::uint64_t segment_frames) {
  if (segment_frames == 0)
    throw std::invalid_argument("SegmentedFrameLog: segment_frames is 0");
  log_.close();
  path_ = path;
  fleet_hash_ = fleet_hash;
  segment_frames_ = segment_frames;
  sealed_.clear();
  active_index_ = 1;
  active_base_ = 0;
  active_count_ = 0;

  // The first violation ends the kept prefix and everything from it onward
  // is unlinked (a sealed segment is immutable, so a bad one means
  // corruption — nothing after it is trustworthy either). A foreign fleet
  // hash on the chain head means the whole chain is stale (the fleet shape
  // changed); later on it is plain corruption. Without resume nothing is
  // kept.
  const auto files = list_segments(path);
  Chain chain = resume ? walk_chain(files, &fleet_hash) : Chain{};
  const auto& kept = chain.kept;
  for (std::size_t i = kept.size(); i < files.size(); ++i)
    ::unlink(files[i].second.c_str());

  Recovery rec;
  rec.stale = chain.foreign_head;
  rec.frames_decoded = chain.frames_decoded;
  if (kept.empty()) {
    log_.open(segment_path(path, 1), fleet_hash, false, 2, 0);
    return rec;
  }

  // Sealed prefix stays closed; the last kept segment reopens for append
  // at the intact end the walk found, truncating its torn tail if any.
  active_base_ = chain.wal.base_ordinal;
  for (std::size_t i = 0; i + 1 < kept.size(); ++i) {
    sealed_.push_back(
        {segment_path(path, kept[i].first), active_base_, kept[i].second});
    active_base_ += kept[i].second;
  }
  active_index_ = kept.back().first;
  active_count_ = kept.back().second;
  log_.reopen(segment_path(path, active_index_), chain.tail_end);
  rec.frames = std::move(chain.wal.frames);
  rec.torn_tail = chain.wal.torn_tail;
  rec.base_ordinal = chain.wal.base_ordinal;
  return rec;
}

bool SegmentedFrameLog::rotate() {
  if (!log_.sync()) return false;
  log_.close();
  sealed_.push_back(
      {segment_path(path_, active_index_), active_base_, active_count_});
  ++active_index_;
  active_base_ += active_count_;
  active_count_ = 0;
  try {
    log_.open(segment_path(path_, active_index_), fleet_hash_, false, 2,
              active_base_);
  } catch (const std::runtime_error&) {
    return false;  // the log stays closed: every later append fails too
  }
  return true;
}

bool SegmentedFrameLog::append(const Frame& frame, bool sync) {
  if (active_count_ >= segment_frames_ && !rotate())
    return false;
  if (!log_.append(frame, sync)) return false;
  ++active_count_;
  return true;
}

std::size_t SegmentedFrameLog::reclaim_before(std::uint64_t ordinal) {
  std::size_t reclaimed = 0;
  std::vector<Segment> survivors;
  survivors.reserve(sealed_.size());
  for (Segment& seg : sealed_) {
    if (seg.base + seg.frames <= ordinal) {
      ::unlink(seg.path.c_str());
      ++reclaimed;
    } else {
      survivors.push_back(std::move(seg));
    }
  }
  sealed_ = std::move(survivors);
  return reclaimed;
}

}  // namespace vmcw::service
