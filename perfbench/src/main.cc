// perfbench: runs one workload of the repository benchmark and prints one
// JSON line with every metric, the machine/build fingerprint and the seed.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// perfbench/run.py builds this binary and turns its line into the
// benchmark's result. Exit status: 0 when every operation was checked
// correct, 1 on a wrong result, 2 on a usage or set-up error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "workloads.h"

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[i * 4], &regs[i * 4 + 1],
                  &regs[i * 4 + 2], &regs[i * 4 + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string model(brand);
    size_t first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
#endif
  return "unknown";
}

std::string Fingerprint(uint64_t seed) {
#ifdef SCOOP_LOCK_ORDER_CHECK
  const bool lock_order_check = true;
#else
  const bool lock_order_check = false;
#endif
  std::string out = "{";
  out += "\"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  out += ", \"cpu\": " + JsonString(CpuModel());
  out += ", \"compiler\": " + JsonString(__VERSION__);
  out += ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE);
  out += ", \"lock_order_check\": ";
  out += lock_order_check ? "true" : "false";
  out += ", \"simd\": " + std::to_string(SCOOP_SIMD_ENABLED);
  out += ", \"seed\": " + std::to_string(seed);
  return out + "}";
}

std::string Metrics(const std::vector<perfbench::Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " + value +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("flags take one value each");
  if (options.workload.empty()) return Usage("--workload is required");
  if (!(options.seconds > 0.0) || options.seconds > 600.0) {
    return Usage("--seconds must be in (0, 600]");
  }

  auto report = perfbench::RunWorkload(options);
  if (!report.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", report.status().ToString().c_str());
    return 2;
  }
  std::string errors = "[";
  for (size_t i = 0; i < report->errors.size(); ++i) {
    if (i > 0) errors += ", ";
    errors += JsonString(report->errors[i]);
  }
  errors += "]";
  std::printf(
      "{\"workload\": %s, \"correct\": %s, \"attempted\": %lld, \"failed\": "
      "%lld, \"fingerprint\": %s, \"metrics\": %s, \"layers\": %s, "
      "\"errors\": %s}\n",
      JsonString(options.workload).c_str(), report->correct ? "true" : "false",
      static_cast<long long>(report->attempted),
      static_cast<long long>(report->failed),
      Fingerprint(options.seed).c_str(), Metrics(report->metrics).c_str(),
      Metrics(report->layers).c_str(), errors.c_str());
  return report->correct ? 0 : 1;
}
