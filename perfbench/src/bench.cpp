#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "deploy/model_store.hpp"
#include "tensor/random.hpp"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t i = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

uint64_t derive_seed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

dsx::deploy::ArchSpec serving_spec(uint64_t weight_seed, int64_t cg,
                                   double co) {
  dsx::deploy::ArchSpec spec;
  spec.family = "mobilenet";
  spec.num_classes = 10;
  spec.image = 16;
  spec.scheme.scheme = dsx::models::ConvScheme::kDWSCC;
  spec.scheme.cg = cg;
  spec.scheme.co = co;
  spec.scheme.width_mult = 0.25;
  spec.init_seed = weight_seed;
  return spec;
}

dsx::deploy::ArchSpec large_spec(uint64_t weight_seed) {
  dsx::deploy::ArchSpec spec = serving_spec(weight_seed);
  spec.image = 32;
  spec.scheme.width_mult = 1.0;
  return spec;
}

dsx::serve::CompileOptions default_compile() {
  dsx::serve::CompileOptions opts;
  opts.max_batch = kMaxBatch;
  return opts;
}

std::unique_ptr<dsx::serve::CompiledModel> compile_spec(
    const dsx::deploy::ArchSpec& spec) {
  return std::make_unique<dsx::serve::CompiledModel>(
      dsx::deploy::build_architecture(spec), spec.image_shape(),
      default_compile());
}

std::vector<dsx::deploy::ArchSpec> design_points(uint64_t weight_seed) {
  return {serving_spec(weight_seed, 4, 0.5), serving_spec(weight_seed + 1, 2, 0.5),
          serving_spec(weight_seed + 2, 4, 0.25)};
}

std::vector<std::string> save_design_points(dsx::deploy::ModelStore& store,
                                            uint64_t weight_seed) {
  std::vector<std::string> names;
  for (const dsx::deploy::ArchSpec& spec : design_points(weight_seed)) {
    names.push_back("m" + std::to_string(names.size()));
    auto net = dsx::deploy::build_architecture(spec);
    store.save_version(names.back(), "v1", *net, spec);
  }
  return names;
}

int64_t two_model_budget(const dsx::deploy::ModelStore& store,
                         const std::vector<std::string>& names) {
  std::vector<int64_t> cost;
  for (const std::string& name : names) {
    auto plan = store.compile(name, "v1", default_compile());
    cost.push_back(plan->report().param_floats +
                   plan->report().workspace_floats);
  }
  std::sort(cost.begin(), cost.end());
  // The two costliest fit; the cheapest never fits beside them.
  return cost[1] + cost[2] + cost[0] / 2;
}

std::vector<dsx::Tensor> make_images(const dsx::deploy::ArchSpec& spec,
                                     int count, uint64_t seed) {
  dsx::Rng rng(seed);
  std::vector<dsx::Tensor> images;
  for (int i = 0; i < count; ++i) {
    images.push_back(dsx::random_uniform(
        dsx::make_nchw(1, spec.channels, spec.image, spec.image), rng, -1.0f,
        1.0f));
  }
  return images;
}

std::vector<std::vector<float>> reference_logits(
    dsx::serve::CompiledModel& plan, const std::vector<dsx::Tensor>& images) {
  std::vector<std::vector<float>> refs;
  for (const dsx::Tensor& image : images) {
    const dsx::Tensor y = plan.run(image);
    refs.emplace_back(y.data(), y.data() + y.numel());
  }
  return refs;
}

bool same_bits(const float* got, const std::vector<float>& want, int64_t n) {
  return n == static_cast<int64_t>(want.size()) &&
         std::memcmp(got, want.data(), want.size() * sizeof(float)) == 0;
}

// ---- Report -----------------------------------------------------------------

void Report::add(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) {
    throw std::runtime_error("metric " + name + " is not finite");
  }
  metrics_.push_back({name, value, unit});
}

void Report::note(const std::string& line) { notes_.push_back(line); }

void Report::count(int64_t attempted, int64_t failed, int64_t mismatches) {
  attempted_ += attempted;
  failed_ += failed;
  mismatches_ += mismatches;
}

void Report::print() const {
  for (const std::string& line : notes_) std::printf("%s\n", line.c_str());
  for (const Metric& m : metrics_) {
    std::printf("%-32s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("attempted %lld failed %lld mismatches %lld\n",
              static_cast<long long>(attempted_),
              static_cast<long long>(failed_),
              static_cast<long long>(mismatches_));
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              mismatches_ == 0 ? "true" : "false",
              static_cast<long long>(attempted_),
              static_cast<long long>(failed_));
  for (size_t i = 0; i < metrics_.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                metrics_[i].value, metrics_[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// ---- SpanLog ----------------------------------------------------------------

uint64_t SpanLog::add(const char* name, int64_t start_ns, int64_t end_ns,
                      uint64_t parent, int track) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t id = spans_.size() + 1;
  spans_.push_back({name, start_ns, end_ns, id, parent, track});
  return id;
}

size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool SpanLog::write_chrome_json(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream os(path);
  if (!os) return false;
  int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) base = std::min(base, s.start_ns);
  os << "{\"traceEvents\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                  "\"parent\":%llu}}",
                  i == 0 ? "" : ",", s.name, s.track,
                  static_cast<double>(s.start_ns - base) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent));
    os << buf;
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

}  // namespace perfbench
