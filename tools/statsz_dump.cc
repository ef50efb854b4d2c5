// statsz_dump: run a small pub/sub workload through vitex::Service and
// print the /statsz payload (Prometheus text exposition, DESIGN.md §10)
// to stdout — the quickest way to eyeball the pipeline's counters, queue
// watermarks, and per-stage latency distributions, and the CI smoke check
// that the exposition never goes empty or malformed.
//
//   ./statsz_dump [--shards N] [--streams M] [--subs K] [--documents D]
//                 [--no-tracing] [--check]
//
// --check re-parses the emitted text with a strict line validator (every
// line must be a HELP/TYPE comment or a `name{labels} value` sample) and
// verifies the headline series are present; exit 1 on any violation.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "service/vitex.h"

namespace {

std::string MakeFeedDoc(int tags, int items, int salt) {
  std::string doc = "<feed>";
  for (int i = 0; i < items; ++i) {
    int tag = (i * 7 + salt) % tags;
    doc += "<item" + std::to_string(tag) + "><val>quote " +
           std::to_string(salt) + "." + std::to_string(i) +
           " lorem ipsum</val></item" + std::to_string(tag) + ">";
  }
  doc += "</feed>";
  return doc;
}

bool IsMetricNameChar(char c, bool first) {
  if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
      c == ':') {
    return true;
  }
  return !first && c >= '0' && c <= '9';
}

// Validates one non-comment exposition line: name{labels} value.
bool ValidSampleLine(const std::string& line) {
  size_t i = 0;
  if (i >= line.size() || !IsMetricNameChar(line[i], true)) return false;
  while (i < line.size() && IsMetricNameChar(line[i], false)) ++i;
  if (i < line.size() && line[i] == '{') {
    // Labels: consume to the matching '}', honoring quoted values.
    ++i;
    bool in_quotes = false;
    while (i < line.size()) {
      char c = line[i];
      if (in_quotes) {
        if (c == '\\') {
          ++i;  // escaped char
        } else if (c == '"') {
          in_quotes = false;
        }
      } else if (c == '"') {
        in_quotes = true;
      } else if (c == '}') {
        break;
      }
      ++i;
    }
    if (i >= line.size() || line[i] != '}') return false;
    ++i;
  }
  if (i >= line.size() || line[i] != ' ') return false;
  ++i;
  // Value: a float strtod fully consumes.
  const char* start = line.c_str() + i;
  char* end = nullptr;
  std::strtod(start, &end);
  return end != start && *end == '\0';
}

// Full-payload validation: every line parses, and the headline series the
// issue's acceptance criteria name are present.
bool CheckExposition(const std::string& text, bool tracing) {
  if (text.empty()) {
    std::fprintf(stderr, "statsz_dump --check: exposition is EMPTY\n");
    return false;
  }
  size_t samples = 0, pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) {
      std::fprintf(stderr, "--check: missing trailing newline\n");
      return false;
    }
    std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    if (line[0] == '#') {
      if (line.rfind("# HELP ", 0) != 0 && line.rfind("# TYPE ", 0) != 0) {
        std::fprintf(stderr, "--check: bad comment line: %s\n", line.c_str());
        return false;
      }
      continue;
    }
    if (!ValidSampleLine(line)) {
      std::fprintf(stderr, "--check: unparseable line: %s\n", line.c_str());
      return false;
    }
    ++samples;
  }
  if (samples == 0) {
    std::fprintf(stderr, "--check: no sample lines\n");
    return false;
  }
  std::vector<std::string> required = {
      "vitex_documents_published_total ",
      "vitex_stream_queue_high_watermark{",
      "vitex_shard_inbox_high_watermark{",
      "vitex_shard_dispatch_start_visits_total{",
  };
  if (tracing) {
    required.push_back("vitex_stage_parse_nanos_bucket{");
    required.push_back("vitex_stage_e2e_nanos_p99 ");
    required.push_back("vitex_stage_match_nanos_p50 ");
  }
  for (const std::string& needle : required) {
    if (text.find(needle) == std::string::npos) {
      std::fprintf(stderr, "--check: required series missing: %s\n",
                   needle.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  size_t shards = 2, streams = 2;
  int subs = 32, documents = 50;
  bool tracing = true, check = false;
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--shards") == 0) {
      shards = std::strtoul(next("--shards"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--streams") == 0) {
      streams = std::strtoul(next("--streams"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--subs") == 0) {
      subs = std::atoi(next("--subs"));
    } else if (std::strcmp(argv[i], "--documents") == 0) {
      documents = std::atoi(next("--documents"));
    } else if (std::strcmp(argv[i], "--no-tracing") == 0) {
      tracing = false;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else {
      std::fprintf(stderr,
                   "usage: statsz_dump [--shards N] [--streams M] [--subs K] "
                   "[--documents D] [--no-tracing] [--check]\n");
      return 2;
    }
  }

  vitex::ServiceOptions options;
  options.shard_count = shards;
  options.stream_count = streams;
  options.queue_capacity = 8;  // small on purpose: show real backpressure
  options.enable_tracing = tracing;
  vitex::Service service(options);
  std::vector<vitex::Subscription> handles;  // dropping one unsubscribes
  for (int i = 0; i < subs; ++i) {
    auto sub =
        service.Subscribe("//item" + std::to_string(i) + "/val/text()");
    if (!sub.ok()) {
      std::fprintf(stderr, "subscribe: %s\n",
                   sub.status().ToString().c_str());
      return 1;
    }
    handles.push_back(std::move(sub).value());
  }
  for (int d = 0; d < documents; ++d) {
    if (d == documents / 2) {
      // One malformed publication: the rejected-documents series should be
      // live in the dump, not perpetually zero.
      (void)service.Publish("<feed><unclosed>");
    }
    if (!service.Publish(MakeFeedDoc(subs, 64, d)).ok()) {
      std::fprintf(stderr, "publish failed\n");
      return 1;
    }
  }
  vitex::Status status = service.Flush();
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::string text = service.StatszText();
  std::fputs(text.c_str(), stdout);
  if (check && !CheckExposition(text, tracing)) return 1;
  return 0;
}
