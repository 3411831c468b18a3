#include "src/obs/bench_telemetry.h"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

namespace dsadc::obs {
namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  return out;
}

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  if (std::strstr(buf, "inf") != nullptr || std::strstr(buf, "nan") != nullptr) {
    return "null";
  }
  return buf;
}

/// The first "model name" of /proc/cpuinfo, or "unknown".
std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto p = line.find(':');
      if (p != std::string::npos && p + 2 <= line.size()) {
        return line.substr(p + 2);
      }
    }
  }
  return "unknown";
}

}  // namespace

BenchReport::BenchReport(std::string name)
    : name_(std::move(name)), start_(std::chrono::steady_clock::now()) {}

BenchReport::~BenchReport() {
  if (!written_) write(false);
}

void BenchReport::set(const std::string& key, double value) {
  fields_[key] = json_number(value);
}

void BenchReport::set(const std::string& key, const std::string& value) {
  fields_[key] = "\"" + json_escape(value) + "\"";
}

void BenchReport::set(const std::string& key, const char* value) {
  set(key, std::string(value));
}

void BenchReport::set(const std::string& key, bool value) {
  fields_[key] = value ? "true" : "false";
}

void BenchReport::set_throughput(double samples_per_second) {
  set("throughput_samples_per_s", samples_per_second);
}

void BenchReport::set_host(const std::string& simd_best,
                           const std::string& simd_active) {
  host_ = "{\"cores\": " + std::to_string(::sysconf(_SC_NPROCESSORS_ONLN)) +
          ", \"cpu_model\": \"" + json_escape(cpu_model()) +
          "\", \"simd_best\": \"" + json_escape(simd_best) +
          "\", \"simd_active\": \"" + json_escape(simd_active) + "\"}";
}

std::string BenchReport::output_dir() {
  const char* dir = std::getenv("DSADC_BENCH_OUT");
  if (dir != nullptr && dir[0] != '\0') return dir;
  return ".";
}

std::string BenchReport::output_path() const {
  return output_dir() + "/BENCH_" + name_ + ".json";
}

void BenchReport::write(bool ok) {
  written_ = true;
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start_)
          .count();
  std::string out = "{\n  \"bench\": \"" + json_escape(name_) + "\",\n";
  out += "  \"ok\": " + std::string(ok ? "true" : "false") + ",\n";
  out += "  \"wall_ms\": " + json_number(wall_ms) + ",\n";
  if (!host_.empty()) out += "  \"host\": " + host_ + ",\n";
  out += "  \"metrics\": {";
  bool first = true;
  for (const auto& [key, value] : fields_) {
    if (!first) out += ",";
    first = false;
    out += "\n    \"" + json_escape(key) + "\": " + value;
  }
  out += first ? "}\n}\n" : "\n  }\n}\n";

  const std::string path = output_path();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "BenchReport: cannot write %s\n", path.c_str());
    return;
  }
  std::fwrite(out.data(), 1, out.size(), f);
  std::fclose(f);
}

int BenchReport::finish(bool ok) {
  if (!written_) write(ok);
  return ok ? 0 : 1;
}

}  // namespace dsadc::obs
