#include "corpus.h"

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "baseline/dom_evaluator.h"
#include "common/random.h"
#include "workload/protein_generator.h"
#include "xml/dom.h"
#include "xpath/query.h"

namespace perfbench {
namespace {

constexpr const char* kWords[] = {"lorem", "ipsum", "dolor", "sit",
                                  "amet",  "quote", "trade", "bid",
                                  "ask",   "close", "open",  "volume"};

void FormatStamp(uint64_t pub, char* out) {
  for (size_t i = kStampDigits; i > 0; --i) {
    out[i - 1] = static_cast<char>('0' + pub % 10);
    pub /= 10;
  }
}

// Appends the <stamp> element with all-zero digits and records where
// they start.
void AppendStampElement(Template* doc) {
  doc->text += "<stamp>";
  doc->text += kStampMark;
  doc->stamp = doc->text.size();
  doc->text.append(kStampDigits, '0');
  doc->text += "</stamp>";
}

void AppendWords(vitex::Random* rng, int count, std::string* out) {
  for (int w = 0; w < count; ++w) {
    *out += ' ';
    *out += kWords[rng->Uniform(std::size(kWords))];
  }
}

// The service's headline feed shape (bench_service's MakeFeedDoc): each of
// `tags` item tags once per document, in a seeded order, as
// `<itemT><val>text</val><aux>x</aux></itemT>`.
Template FeedDoc(vitex::Random* rng, int tags) {
  std::vector<int> order(static_cast<size_t>(tags));
  std::iota(order.begin(), order.end(), 0);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng->Uniform(i)]);
  }
  Template doc;
  doc.text = "<feed>";
  AppendStampElement(&doc);
  const uint64_t salt = rng->Uniform(1000);
  for (int i = 0; i < tags; ++i) {
    const std::string tag = "item" + std::to_string(order[i]);
    doc.text += "<" + tag + "><val>quote " + std::to_string(salt) + "." +
                std::to_string(i);
    AppendWords(rng, 4, &doc.text);
    doc.text += "</val><aux>x</aux></" + tag + ">";
  }
  doc.text += "</feed>";
  return doc;
}

vitex::Status ProteinDoc(uint64_t seed, Template* doc) {
  vitex::workload::ProteinOptions options;
  // ~300 KB: a quarter of a 1,000-entry document, so each one-second round
  // of the open loop still sends dozens of documents.
  options.entries = 250;
  options.seed = seed;
  vitex::Result<std::string> text =
      vitex::workload::GenerateProteinString(options);
  if (!text.ok()) return text.status();
  // Insert the <stamp> element right after the root's start tag.
  const std::string& raw = text.value();
  size_t root = raw.find('<');
  while (root != std::string::npos && root + 1 < raw.size() &&
         (raw[root + 1] == '?' || raw[root + 1] == '!')) {
    root = raw.find('<', root + 1);
  }
  const size_t root_end =
      root == std::string::npos ? root : raw.find('>', root);
  if (root_end == std::string::npos) {
    return vitex::Status::Internal("protein document has no root element");
  }
  doc->text = raw.substr(0, root_end + 1);
  AppendStampElement(doc);
  doc->text += raw.substr(root_end + 1);
  return vitex::Status::OK();
}

vitex::Status RunOracle(Corpus* corpus) {
  std::vector<vitex::xpath::Query> compiled;
  for (const std::string& q : corpus->queries) {
    vitex::Result<vitex::xpath::Query> query =
        vitex::xpath::ParseAndCompile(q);
    if (!query.ok()) return query.status();
    compiled.push_back(std::move(query).value());
  }
  vitex::Result<vitex::xpath::Query> churn =
      vitex::xpath::ParseAndCompile(kChurnQuery);
  if (!churn.ok()) return churn.status();

  corpus->expected.assign(corpus->docs.size(), {});
  corpus->doc_total.assign(corpus->docs.size(), 0);
  std::vector<uint64_t> subs_per_query(corpus->queries.size(), 0);
  for (uint32_t q : corpus->sub_query) ++subs_per_query[q];

  for (size_t d = 0; d < corpus->docs.size(); ++d) {
    vitex::Result<vitex::xml::Document> dom =
        vitex::xml::ParseIntoDom(corpus->docs[d].text);
    if (!dom.ok()) return dom.status();
    auto answer = [&](const vitex::xpath::Query& query) {
      vitex::baseline::DomEvaluator evaluator(&dom.value());
      auto sequenced = evaluator.EvaluateToSequencedFragments(query);
      std::vector<Expected> out;
      out.reserve(sequenced.size());
      for (auto& [sequence, fragment] : sequenced) {
        out.push_back(Expected{sequence, std::move(fragment)});
      }
      std::sort(out.begin(), out.end(),
                [](const Expected& a, const Expected& b) {
                  return a.sequence < b.sequence;
                });
      return out;
    };
    std::vector<Expected> stamp = answer(churn.value());
    if (stamp.size() != 1 ||
        stamp[0].fragment != kStampMark + std::string(kStampDigits, '0')) {
      return vitex::Status::Internal(
          "oracle: template " + std::to_string(d) +
          " does not give the churn query exactly one stamp");
    }
    corpus->expected[d].reserve(compiled.size());
    for (size_t q = 0; q < compiled.size(); ++q) {
      corpus->expected[d].push_back(answer(compiled[q]));
      corpus->doc_total[d] += corpus->expected[d][q].size() * subs_per_query[q];
    }
  }
  return vitex::Status::OK();
}

}  // namespace

vitex::Status Build(const std::string& workload, uint64_t seed, Corpus* out) {
  Corpus corpus;
  vitex::Random rng(seed * 0x9e3779b97f4a7c15ull + 0x51ed270b27ull);
  if (workload == "feed_shared_tags") {
    constexpr int kTags = 256;
    corpus.shards = 2;
    for (int i = 0; i < kTags; ++i) {
      corpus.queries.push_back("//item" + std::to_string(i) + "/val/text()");
      corpus.sub_query.push_back(static_cast<uint32_t>(i));
    }
    for (int d = 0; d < 8; ++d) corpus.docs.push_back(FeedDoc(&rng, kTags));
  } else if (workload == "protein_parse") {
    corpus.wire = true;
    corpus.shards = 1;
    // The paper's query alone (~0.9 MATCHes per entry). Its variants from
    // bench_protein_e2e add 0.5 to 4.5 MATCHes each per entry, and
    // per-MATCH delivery over the wire then outweighs the parse: with all
    // four on 1,000-entry documents, net self time was ~20 ms per document
    // against ~11 ms for parse + record — the opposite of what this
    // workload is for.
    corpus.queries = {"//ProteinEntry[reference]/@id"};
    corpus.sub_query = {0};
    for (int d = 0; d < 4; ++d) {
      Template doc;
      VITEX_RETURN_IF_ERROR(ProteinDoc(rng.Next(), &doc));
      corpus.docs.push_back(std::move(doc));
    }
  } else {
    return vitex::Status::InvalidArgument("unknown workload: " + workload);
  }
  VITEX_RETURN_IF_ERROR(RunOracle(&corpus));
  *out = std::move(corpus);
  return vitex::Status::OK();
}

bool ParseStamp(std::string_view digits, uint64_t* pub) {
  if (digits.size() != kStampDigits) return false;
  uint64_t value = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *pub = value;
  return true;
}

void StampDocument(const Template& doc, uint64_t pub, std::string* out) {
  out->assign(doc.text);
  char digits[kStampDigits];
  FormatStamp(pub, digits);
  out->replace(doc.stamp, kStampDigits, digits, kStampDigits);
}

}  // namespace perfbench
