// rfbench: runs one benchmark workload and prints its report.
//
//   rfbench --workload <invoke_hot|invoke_ft|lease_churn> --seed <n>
//           --seconds <s> [--trace 0|1] [--trace-out <file>]
//
// Human-readable lines come first; the last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "setup_s",
// "gate_failures", "metrics": {name: [value, unit]}}. run.py turns these
// into the benchmark's final result line. The exit code is 0 only when
// every correctness gate held.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "rfbench: %s\nusage: rfbench --workload <invoke_hot|invoke_ft|lease_churn> "
               "--seed <n> --seconds <s> [--trace 0|1] [--trace-out <file>]\n",
               why);
  std::exit(2);
}

void print_json_string(const std::string& s) {
  std::putchar('"');
  for (char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    std::putchar(c);
  }
  std::putchar('"');
}

/// Every digit of the value; non-finite values (never expected) as null.
void print_json_number(double v) {
  if (std::isfinite(v)) {
    std::printf("%.17g", v);
  } else {
    std::printf("null");
  }
}

}  // namespace

int main(int argc, char** argv) {
  rfb::Options opt;
  std::string trace_out;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value(), nullptr);
    } else if (arg == "--trace") {
      opt.trace = std::strcmp(value(), "0") != 0;
    } else if (arg == "--trace-out") {
      trace_out = value();
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed) usage("--seed is required");
  if (!(opt.seconds > 0)) usage("--seconds must be positive");

  rfb::Spans spans(opt.trace);
  rfb::Report rep;
  if (opt.workload == "invoke_hot") {
    rep = rfb::run_invoke(opt, /*fault_tolerant=*/false, spans);
  } else if (opt.workload == "invoke_ft") {
    rep = rfb::run_invoke(opt, /*fault_tolerant=*/true, spans);
  } else if (opt.workload == "lease_churn") {
    rep = rfb::run_lease_churn(opt, spans);
  } else {
    usage(("unknown workload '" + opt.workload + "'").c_str());
  }
  rep.add("peak_rss_mb", rfb::peak_rss_mb(), "MB");
  if (opt.trace) rep.add("trace.spans", static_cast<double>(spans.size()), "count");
  if (opt.trace && !trace_out.empty() && !spans.write_chrome(trace_out, 100'000)) {
    rep.gate(false, "trace written to " + trace_out);
  }
  for (const auto& g : rep.gate_failures) std::printf("GATE FAILED: %s\n", g.c_str());

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"setup_s\": ",
              rep.correct ? "true" : "false", static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed));
  print_json_number(rep.setup_s);
  std::printf(", \"gate_failures\": [");
  for (std::size_t i = 0; i < rep.gate_failures.size(); ++i) {
    if (i != 0) std::printf(", ");
    print_json_string(rep.gate_failures[i]);
  }
  std::printf("], \"metrics\": {");
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    if (i != 0) std::printf(", ");
    print_json_string(rep.metrics[i].name);
    std::printf(": [");
    print_json_number(rep.metrics[i].value);
    std::printf(", ");
    print_json_string(rep.metrics[i].unit);
    std::printf("]");
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return rep.correct ? 0 : 1;
}
