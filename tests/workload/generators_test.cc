#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/random.h"
#include "workload/book_generator.h"
#include "workload/protein_generator.h"
#include "workload/random_generator.h"
#include "workload/recursive_generator.h"
#include "workload/xmark_generator.h"
#include "xml/dom.h"
#include "xml/sax_parser.h"
#include "xpath/query.h"

namespace vitex::workload {
namespace {

// Every generator's output must be well-formed XML.
class WellFormedHandler : public xml::ContentHandler {};

bool IsWellFormed(std::string_view doc) {
  WellFormedHandler handler;
  return xml::ParseString(doc, &handler).ok();
}

TEST(ProteinGeneratorTest, ProducesWellFormedXml) {
  ProteinOptions options;
  options.entries = 50;
  auto doc = GenerateProteinString(options);
  ASSERT_TRUE(doc.ok());
  EXPECT_TRUE(IsWellFormed(doc.value()));
}

TEST(ProteinGeneratorTest, EntryCountMatches) {
  ProteinOptions options;
  options.entries = 37;
  auto doc = GenerateProteinString(options);
  ASSERT_TRUE(doc.ok());
  size_t count = 0, pos = 0;
  while ((pos = doc->find("<ProteinEntry ", pos)) != std::string::npos) {
    ++count;
    ++pos;
  }
  EXPECT_EQ(count, 37u);
}

TEST(ProteinGeneratorTest, DeterministicForSeed) {
  ProteinOptions options;
  options.entries = 10;
  auto a = GenerateProteinString(options);
  auto b = GenerateProteinString(options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value(), b.value());
  options.seed = 43;
  auto c = GenerateProteinString(options);
  ASSERT_TRUE(c.ok());
  EXPECT_NE(a.value(), c.value());
}

TEST(ProteinGeneratorTest, ReferenceProbabilityRespected) {
  ProteinOptions options;
  options.entries = 300;
  options.reference_probability = 0.5;
  auto doc = GenerateProteinString(options);
  ASSERT_TRUE(doc.ok());
  size_t entries_with_ref = 0, pos = 0;
  // Count entries, then entries containing <reference>. Every entry also
  // carries exactly one <sequence>.
  auto dom = xml::ParseIntoDom(doc.value());
  ASSERT_TRUE(dom.ok());
  for (const xml::DomNode* e = dom->root()->first_child; e != nullptr;
       e = e->next_sibling) {
    if (!e->IsElement()) continue;
    bool has_ref = false;
    int sequences = 0;
    for (const xml::DomNode* c = e->first_child; c != nullptr;
         c = c->next_sibling) {
      if (!c->IsElement()) continue;
      if (c->name == "reference") has_ref = true;
      if (c->name == "sequence") ++sequences;
    }
    if (has_ref) ++entries_with_ref;
    EXPECT_EQ(sequences, 1);
  }
  (void)pos;
  EXPECT_NEAR(static_cast<double>(entries_with_ref) / 300.0, 0.5, 0.12);

  // References nest ProteinDatabase/ProteinEntry/reference/refinfo/authors.
  int max_depth = 0;
  std::vector<const xml::DomNode*> stack = {dom->root()};
  while (!stack.empty()) {
    const xml::DomNode* n = stack.back();
    stack.pop_back();
    max_depth = std::max(max_depth, n->depth);
    for (const xml::DomNode* c = n->first_child; c != nullptr;
         c = c->next_sibling) {
      if (c->IsElement()) stack.push_back(c);
    }
  }
  EXPECT_GE(max_depth, 5);
}

TEST(ProteinGeneratorTest, FileGenerationReachesTarget) {
  std::string path = ::testing::TempDir() + "/vitex_protein_gen.xml";
  auto entries = GenerateProteinFile(path, 200 * 1024, 1);
  ASSERT_TRUE(entries.ok()) << entries.status();
  EXPECT_GT(entries.value(), 50u);
  WellFormedHandler handler;
  EXPECT_TRUE(xml::ParseFile(path, &handler).ok());
  std::remove(path.c_str());
}

TEST(BookGeneratorTest, Figure1Shape) {
  std::string doc = Figure1Document();
  EXPECT_TRUE(IsWellFormed(doc));
  auto dom = xml::ParseIntoDom(doc);
  ASSERT_TRUE(dom.ok());
  EXPECT_EQ(dom->root()->name, "book");
}

TEST(BookGeneratorTest, RandomBooksWellFormed) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    BookOptions options;
    options.seed = seed;
    options.section_depth = 4;
    options.table_depth = 4;
    options.chains = 3;
    auto doc = GenerateBookString(options);
    ASSERT_TRUE(doc.ok());
    EXPECT_TRUE(IsWellFormed(doc.value())) << "seed " << seed;
  }
}

TEST(RecursiveGeneratorTest, DepthRespected) {
  RecursiveOptions options;
  options.depth = 9;
  auto doc = GenerateRecursiveString(options);
  ASSERT_TRUE(doc.ok());
  EXPECT_TRUE(IsWellFormed(doc.value()));
  WellFormedHandler handler;
  xml::SaxParser p2(&handler);
  ASSERT_TRUE(p2.Feed(doc.value()).ok());
  ASSERT_TRUE(p2.Finish().ok());
  // root + 9 a's + leaf children.
  EXPECT_GE(p2.stats().max_depth, 10);
}

TEST(RecursiveGeneratorTest, ChainQueryBuilder) {
  EXPECT_EQ(RecursiveChainQuery(2), "//a[p]//a[p]//v");
  EXPECT_EQ(RecursiveChainQuery(1, false), "//a//v");
}

TEST(XmarkGeneratorTest, WellFormedAndScales) {
  XmarkOptions small;
  small.items_per_region = 5;
  auto doc_small = GenerateXmarkString(small);
  ASSERT_TRUE(doc_small.ok());
  EXPECT_TRUE(IsWellFormed(doc_small.value()));

  XmarkOptions larger;
  larger.items_per_region = 20;
  auto doc_large = GenerateXmarkString(larger);
  ASSERT_TRUE(doc_large.ok());
  EXPECT_GT(doc_large->size(), doc_small->size() * 2);
}

TEST(XmarkGeneratorTest, ContainsExpectedStructure) {
  XmarkOptions options;
  options.items_per_region = 3;
  auto doc = GenerateXmarkString(options);
  ASSERT_TRUE(doc.ok());
  EXPECT_NE(doc->find("<open_auctions>"), std::string::npos);
  EXPECT_NE(doc->find("<people>"), std::string::npos);
  EXPECT_NE(doc->find("incategory"), std::string::npos);
}

TEST(RandomDocGeneratorTest, AlwaysWellFormed) {
  Random rng(555);
  RandomDocOptions options;
  for (int i = 0; i < 50; ++i) {
    std::string doc = GenerateRandomDocument(options, &rng);
    EXPECT_TRUE(IsWellFormed(doc)) << doc;
  }
}

TEST(RandomDocGeneratorTest, RespectsElementCap) {
  Random rng(7);
  RandomDocOptions options;
  options.max_elements = 20;
  for (int i = 0; i < 20; ++i) {
    std::string doc = GenerateRandomDocument(options, &rng);
    // Count start tags (find("<t") skips end tags, which begin with "</").
    size_t opens = 0, pos = 0;
    while ((pos = doc.find("<t", pos)) != std::string::npos) {
      ++opens;
      ++pos;
    }
    EXPECT_LE(opens, 20u);
  }
}

TEST(RandomQueryGeneratorTest, AlwaysCompiles) {
  Random rng(31337);
  RandomQueryOptions options;
  for (int i = 0; i < 200; ++i) {
    std::string q = GenerateRandomQuery(options, &rng);
    auto compiled = vitex::xpath::ParseAndCompile(q);
    EXPECT_TRUE(compiled.ok()) << q << ": " << compiled.status();
  }
}

TEST(RandomQueryGeneratorTest, ProducesVariety) {
  Random rng(2);
  RandomQueryOptions options;
  bool saw_predicate = false, saw_descendant = false, saw_attribute = false;
  for (int i = 0; i < 100; ++i) {
    std::string q = GenerateRandomQuery(options, &rng);
    saw_predicate |= q.find('[') != std::string::npos;
    saw_descendant |= q.find("//") != std::string::npos;
    saw_attribute |= q.find('@') != std::string::npos;
  }
  EXPECT_TRUE(saw_predicate);
  EXPECT_TRUE(saw_descendant);
  EXPECT_TRUE(saw_attribute);
}

}  // namespace
}  // namespace vitex::workload
