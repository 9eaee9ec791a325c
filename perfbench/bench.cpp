#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "core/capacity_index.h"

namespace perfbench {

double now_s() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const std::size_t i = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return samples[std::min(i, samples.size() - 1)];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

Tracer::Scope::Scope(Tracer* tracer, const char* name, std::uint64_t id,
                     std::uint32_t items)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  Span s;
  s.name = name;
  s.id = id;
  s.items = items;
  s.parent = tracer_->open_.empty()
                 ? -1
                 : static_cast<std::int64_t>(tracer_->open_.back());
  index_ = tracer_->spans_.size();
  tracer_->open_.push_back(index_);
  s.start = now_s();
  tracer_->spans_.push_back(s);
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[index_].end = now_s();
  tracer_->open_.pop_back();
}

void Tracer::add(const char* name, std::uint64_t id, double start,
                 double end) {
  if (!enabled_) return;
  Span s;
  s.name = name;
  s.id = id;
  s.start = start;
  s.end = end;
  spans_.push_back(s);
}

std::vector<double> Tracer::self_of_all() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = spans_[i].end - spans_[i].start;
  for (const Span& s : spans_)
    if (s.parent >= 0)
      self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] /= static_cast<double>(spans_[i].items);
  return self;
}

std::vector<double> Tracer::self_seconds(const std::string& name) const {
  const std::vector<double> self = self_of_all();
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (name == spans_[i].name) out.push_back(self[i]);
  return out;
}

bool Tracer::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<double> self = self_of_all();
  std::fprintf(f, "name,id,parent,start_s,end_s,items,self_s\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%s,%llu,%lld,%.9f,%.9f,%u,%.9f\n", s.name,
                 static_cast<unsigned long long>(s.id),
                 static_cast<long long>(s.parent), s.start, s.end, s.items,
                 self[i]);
  }
  return std::fclose(f) == 0;
}

void Run::end_timed() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
}

void Run::repeat_setup(int samples, int per_sample,
                       const std::function<void(int, bool)>& setup) {
  const int total = samples * per_sample;
  for (int i = 0; i < total; i += per_sample) {
    const double t0 = now_s();
    for (int j = i; j < i + per_sample; ++j) setup(j, j + 1 == total);
    setup_s.push_back((now_s() - t0) / per_sample);
  }
}

void trace_first_fit(Run& run,
                     const std::vector<vmcw::ResourceVector>& capacity,
                     const std::vector<vmcw::ResourceVector>& load,
                     const std::vector<vmcw::ResourceVector>& needs) {
  vmcw::CapacityIndex index;
  index.reserve(capacity.size());
  for (std::size_t h = 0; h < capacity.size(); ++h) {
    index.push_host(capacity[h]);
    index.set_load(h, load[h]);
  }
  constexpr std::size_t kBatch = 256;
  std::size_t found = 0;
  for (std::size_t i = 0; i + kBatch <= needs.size(); i += kBatch) {
    auto s = run.trace().span("index.first_fit", i, kBatch);
    for (std::size_t j = i; j < i + kBatch; ++j)
      found += index.first_fit(needs[j]) != vmcw::CapacityIndex::npos;
  }
  run.note("first_fit hits over final loads: " + std::to_string(found) +
           " of " + std::to_string(needs.size() / kBatch * kBatch));
}

std::string fresh_dir(const Run& run, const std::string& name) {
  const std::filesystem::path p = std::filesystem::path(run.dir) / name;
  std::filesystem::remove_all(p);
  std::filesystem::create_directories(p);
  return p.string();
}

}  // namespace perfbench
