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
  const std::uint32_t version =
      bytes.size() < kHeaderSizeV1 ? 0 : load_u32(bytes.data() + 8);
  if ((version != 1 && version != 2) || bytes.size() < header_size(version) ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0)
    throw std::runtime_error("read_frame_log: not a frame WAL: " + path);

  WalContents wal;
  wal.version = version;
  wal.fleet_hash = load_u64(bytes.data() + 12);
  if (version == 2) wal.base_ordinal = load_u64(bytes.data() + 20);
  const std::size_t off =
      scan_records(bytes, header_size(version), frames_into(wal.frames));
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

void append_frames(std::vector<Frame>& to, std::vector<Frame>& from) {
  to.insert(to.end(), std::make_move_iterator(from.begin()),
            std::make_move_iterator(from.end()));
}

/// The valid prefix of a segment chain, walked in index order and
/// stitched into one WalContents: each segment must read cleanly as
/// version 2, carry the head's fleet hash (`fleet_hash` when given) and
/// continue the index and base ordinal before it. The first violation
/// ends the walk; a torn segment is kept but ends it too — a torn tail
/// belongs to the last write, so anything after it was never validly
/// sealed.
struct Chain {
  WalContents wal;
  std::vector<std::pair<std::size_t, std::uint64_t>> kept;  ///< index, frames
  bool foreign_head = false;  ///< the head belongs to another fleet
};

Chain walk_chain(const std::vector<std::pair<std::size_t, std::string>>& files,
                 const std::uint64_t* fleet_hash) {
  Chain chain;
  WalContents& out = chain.wal;
  out.version = 2;
  out.content_hash = 1469598103934665603ull;
  for (const auto& [index, file] : files) {
    WalContents seg;
    try {
      seg = read_frame_log(file);
    } catch (const std::exception&) {
      break;
    }
    if (seg.version != 2) break;
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
    chain.kept.emplace_back(index, seg.frames.size());
    append_frames(out.frames, seg.frames);
    out.content_hash = chain_hash(out.content_hash, seg.content_hash);
    out.torn_tail = seg.torn_tail;
    if (seg.torn_tail) break;
  }
  return chain;
}

}  // namespace

WalContents read_segmented_wal(const std::string& path) {
  const auto files = list_segments(path);
  if (files.empty()) return read_frame_log(path);
  Chain chain = walk_chain(files, nullptr);
  if (chain.kept.empty())
    throw std::runtime_error("read_segmented_wal: no readable segments: " +
                             path);
  return std::move(chain.wal);
}

SegmentedFrameLog::Recovery SegmentedFrameLog::open(
    const std::string& path, std::uint64_t fleet_hash, bool resume,
    std::uint64_t segment_frames) {
  log_.close();
  path_ = path;
  fleet_hash_ = fleet_hash;
  segment_frames_ = segment_frames;
  sealed_.clear();
  active_index_ = 1;
  active_base_ = 0;
  active_count_ = 0;

  Recovery rec;
  if (segment_frames_ == 0) {
    // Legacy single-file mode: byte-compatible with every pre-segmentation
    // WAL on disk and every test that reads one.
    FrameLog::Recovery r = log_.open(path, fleet_hash, resume);
    rec.frames = std::move(r.frames);
    rec.stale = r.stale;
    rec.torn_tail = r.torn_tail;
    active_count_ = rec.frames.size();
    return rec;
  }

  const auto files = list_segments(path);
  if (!resume) {
    for (const auto& [index, file] : files) ::unlink(file.c_str());
    log_.open(segment_path(path, 1), fleet_hash, false, 2, 0);
    rec.segments = 1;
    return rec;
  }

  // The first violation ends the kept prefix and everything from it onward
  // is unlinked (a sealed segment is immutable, so a bad one means
  // corruption — nothing after it is trustworthy either). A foreign fleet
  // hash on the chain head means the whole chain is stale (the fleet shape
  // changed); later on it is plain corruption.
  Chain chain = walk_chain(files, &fleet_hash);
  const auto& kept = chain.kept;
  rec.stale = chain.foreign_head;
  for (std::size_t i = kept.size(); i < files.size(); ++i)
    ::unlink(files[i].second.c_str());

  if (kept.empty()) {
    log_.open(segment_path(path, 1), fleet_hash, false, 2, 0);
    rec.segments = 1;
    return rec;
  }

  // Sealed prefix stays closed; the last kept segment reopens for append
  // (FrameLog::open re-reads it and truncates its torn tail if any), so
  // its frames come from there.
  rec.frames = std::move(chain.wal.frames);
  rec.frames.erase(rec.frames.end() -
                       static_cast<std::ptrdiff_t>(kept.back().second),
                   rec.frames.end());
  active_base_ = chain.wal.base_ordinal;
  for (std::size_t i = 0; i + 1 < kept.size(); ++i) {
    sealed_.push_back(
        {segment_path(path, kept[i].first), active_base_, kept[i].second});
    active_base_ += kept[i].second;
  }
  active_index_ = kept.back().first;
  FrameLog::Recovery r = log_.open(segment_path(path, active_index_),
                                   fleet_hash, true, 2, active_base_);
  active_count_ = r.frames.size();
  rec.torn_tail = r.torn_tail;
  append_frames(rec.frames, r.frames);
  rec.base_ordinal = sealed_.empty() ? active_base_ : sealed_.front().base;
  rec.segments = sealed_.size() + 1;
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
  if (segment_frames_ > 0 && active_count_ >= segment_frames_ && !rotate())
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
