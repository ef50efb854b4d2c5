// Seeded corpora for the benchmark's workloads, and the independent oracle
// that says what every subscription must receive from every document.
//
// A workload is a set of standing subscriptions plus a small set of
// document templates. Publication p sends template p % templates.size(),
// with its stamp field ("#0000000000") overwritten by p's ten-digit
// number. The stamp is one <stamp> element right under the root; the
// churned subscriptions (`//stamp/text()`) receive exactly that one
// fragment per document, which names the publication it came from.
//
// The oracle is baseline::DomEvaluator over the template text, computed
// once before any timing: expected (sequence, fragment) lists per
// (template, distinct query). It shares no code path with the streaming
// engine beyond the SAX parser that builds the DOM.

#ifndef PERFBENCH_CORPUS_H_
#define PERFBENCH_CORPUS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace perfbench {

inline constexpr char kStampMark = '#';
inline constexpr size_t kStampDigits = 10;
inline constexpr const char* kChurnQuery = "//stamp/text()";

/// One oracle answer: a solution's document-order sequence number and its
/// serialized fragment.
struct Expected {
  uint64_t sequence = 0;
  std::string fragment;
};

struct Template {
  std::string text;
  size_t stamp = 0;  // offset of the stamp digits in `text`
};

struct Corpus {
  bool wire = false;          // drive the TCP surface instead of in-process
  size_t shards = 1;
  std::vector<std::string> queries;   // distinct standing queries
  std::vector<uint32_t> sub_query;    // standing subscription -> query
  std::vector<Template> docs;
  // expected[doc][query], sorted by sequence.
  std::vector<std::vector<std::vector<Expected>>> expected;
  std::vector<uint64_t> doc_total;    // standing deliveries per template
};

/// Generates the workload's corpus from `seed` (same seed, same bytes) and
/// runs the oracle over it.
vitex::Status Build(const std::string& workload, uint64_t seed, Corpus* out);

/// Writes publication `pub`'s ten digits into the stamp of `doc`.
void StampDocument(const Template& doc, uint64_t pub, std::string* out);

/// Parses ten stamp digits; false if they are not all digits.
bool ParseStamp(std::string_view digits, uint64_t* pub);

}  // namespace perfbench

#endif  // PERFBENCH_CORPUS_H_
