// Tests for the multi-query dispatch index: per-symbol posting lists must
// route each event only to interested machines (with broadcast fallbacks for
// wildcards, unanchored attributes and open recordings), while producing
// results identical to independent per-query Engine runs.

#include "twigm/multi_query.h"

#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "twigm/builder.h"
#include "twigm/engine.h"
#include "workload/protein_generator.h"
#include "workload/xmark_generator.h"
#include "xml/event_log.h"

namespace vitex::twigm {
namespace {

// Feeds `doc` in chunks of `chunk` bytes.
Status FeedChunked(MultiQueryEngine& engine, std::string_view doc,
                   size_t chunk) {
  for (size_t pos = 0; pos < doc.size(); pos += chunk) {
    VITEX_RETURN_IF_ERROR(engine.Feed(doc.substr(pos, chunk)));
  }
  return engine.Finish();
}

std::vector<std::string> SingleEngineRun(std::string_view query,
                                         std::string_view doc) {
  VectorResultCollector results;
  auto engine = Engine::Create(query, &results);
  EXPECT_TRUE(engine.ok()) << engine.status();
  Status s = engine->RunString(doc);
  EXPECT_TRUE(s.ok()) << s;
  return results.SortedFragments();
}

TEST(MultiQueryDispatchTest, DisjointTagQueriesSkipUninterestedMachines) {
  // 8 queries over disjoint tags; the document mentions only two of them.
  MultiQueryEngine engine;
  std::vector<std::unique_ptr<VectorResultCollector>> handlers;
  for (const char* q : {"//alpha", "//bravo", "//charlie", "//delta",
                        "//echo", "//foxtrot", "//golf", "//hotel"}) {
    handlers.push_back(std::make_unique<VectorResultCollector>());
    ASSERT_TRUE(engine.AddQuery(q, handlers.back().get()).ok());
  }
  ASSERT_TRUE(
      engine.RunString("<r><alpha/><bravo/><alpha/><other/><other/></r>")
          .ok());
  EXPECT_EQ(handlers[0]->size(), 2u);
  EXPECT_EQ(handlers[1]->size(), 1u);
  for (size_t i = 2; i < handlers.size(); ++i) {
    EXPECT_EQ(handlers[i]->size(), 0u);
  }

  const DispatchStats& ds = engine.dispatch_stats();
  // 6 start events (r, 2×alpha, bravo, 2×other). Only the three events whose
  // tag some query names may visit machines: alpha twice, bravo once.
  EXPECT_EQ(ds.start_events, 6u);
  EXPECT_EQ(ds.start_visits, 3u);
  EXPECT_EQ(ds.end_visits, 3u);
  EXPECT_EQ(ds.broadcast_visits, 0u);
  // Naive fan-out would have been 6 events × 8 machines.
  EXPECT_LT(ds.start_visits, ds.start_events * engine.query_count());
}

TEST(MultiQueryDispatchTest, WildcardQueriesFallBackToBroadcast) {
  MultiQueryEngine engine;
  VectorResultCollector wild, named;
  ASSERT_TRUE(engine.AddQuery("//*", &wild).ok());
  ASSERT_TRUE(engine.AddQuery("//zzz", &named).ok());
  ASSERT_TRUE(engine.RunString("<r><a/><b/></r>").ok());
  EXPECT_EQ(wild.size(), 3u);
  EXPECT_EQ(named.size(), 0u);
  const DispatchStats& ds = engine.dispatch_stats();
  // The wildcard machine is visited on every element event.
  EXPECT_EQ(ds.start_visits, 3u);
  EXPECT_EQ(ds.broadcast_visits, 6u);  // 3 starts + 3 ends
}

TEST(MultiQueryDispatchTest, UnanchoredAttributesSeeEveryAttributedTag) {
  MultiQueryEngine engine;
  VectorResultCollector ids;
  ASSERT_TRUE(engine.AddQuery("//@id", &ids).ok());
  ASSERT_TRUE(
      engine.RunString("<r><x id=\"1\"/><y/><z id=\"2\" other=\"o\"/></r>")
          .ok());
  ASSERT_EQ(ids.SortedFragments(), (std::vector<std::string>{"1", "2"}));
  // Only the two attributed elements are dispatched; <r> and <y> carry none.
  EXPECT_EQ(engine.dispatch_stats().start_visits, 2u);
}

TEST(MultiQueryDispatchTest, RecordingMachineObservesForeignTags) {
  // While //keep's output fragment is open, the machine must see <other/>
  // and the text inside, even though its query never mentions them.
  MultiQueryEngine engine;
  VectorResultCollector keep;
  ASSERT_TRUE(engine.AddQuery("//keep", &keep).ok());
  ASSERT_TRUE(
      engine.RunString("<r><keep>a<other>b</other></keep><other/></r>").ok());
  ASSERT_EQ(keep.size(), 1u);
  EXPECT_EQ(keep.results()[0].fragment, "<keep>a<other>b</other></keep>");
  // The trailing <other/> outside the recording is not dispatched.
  const DispatchStats& ds = engine.dispatch_stats();
  EXPECT_EQ(ds.start_events, 4u);
  EXPECT_EQ(ds.start_visits, 2u);  // <keep> + recorded <other>
}

TEST(MultiQueryDispatchTest, MixedQueriesMatchSingleEngineRunsChunked) {
  workload::ProteinOptions options;
  options.entries = 40;
  auto doc = workload::GenerateProteinString(options);
  ASSERT_TRUE(doc.ok());
  const char* queries[] = {
      "//ProteinEntry[reference]/@id",
      "//refinfo/@refid",
      "//ProteinEntry[summary/length > 300]//gene",
      "//*[year]/title",         // wildcard fallback
      "//organism//text()",      // text selection
      "//accinfo/@*",            // attribute wildcard
      "//zzz[never = 'seen']",   // matches nothing
  };
  for (size_t chunk : {1u, 7u, 4096u}) {
    MultiQueryEngine multi;
    std::vector<std::unique_ptr<VectorResultCollector>> handlers;
    for (const char* q : queries) {
      handlers.push_back(std::make_unique<VectorResultCollector>());
      ASSERT_TRUE(multi.AddQuery(q, handlers.back().get()).ok()) << q;
    }
    ASSERT_TRUE(FeedChunked(multi, doc.value(), chunk).ok());
    for (size_t i = 0; i < std::size(queries); ++i) {
      EXPECT_EQ(handlers[i]->SortedFragments(),
                SingleEngineRun(queries[i], doc.value()))
          << "query " << queries[i] << " chunk " << chunk;
    }
  }
}

TEST(MultiQueryDispatchTest, PerEventWorkSublinearInRegisteredQueries) {
  // Disjoint-tag standing queries: as registrations grow 1 -> 64, the
  // per-event machine visits must stay flat (dispatch work follows the
  // machines a tag concerns, not the number registered).
  workload::XmarkOptions options;
  options.items_per_region = 5;
  auto doc = workload::GenerateXmarkString(options);
  ASSERT_TRUE(doc.ok());
  auto visits_with_n_queries = [&](int n) {
    MultiQueryEngine engine;
    // One real query plus n-1 queries over tags absent from the document.
    EXPECT_TRUE(engine.AddQuery("//item[incategory]/name", nullptr).ok());
    for (int i = 1; i < n; ++i) {
      EXPECT_TRUE(
          engine.AddQuery("//absent_tag_" + std::to_string(i), nullptr).ok());
    }
    EXPECT_TRUE(engine.RunString(doc.value()).ok());
    const DispatchStats& ds = engine.dispatch_stats();
    return ds.start_visits + ds.end_visits + ds.text_visits;
  };
  uint64_t v1 = visits_with_n_queries(1);
  uint64_t v64 = visits_with_n_queries(64);
  // Identical: the 63 extra machines are never visited.
  EXPECT_EQ(v64, v1);
}

TEST(MultiQueryDispatchTest, ForeignSymbolTableMachineRejected) {
  MultiQueryEngine engine;
  auto built = TwigMBuilder::Build("//a", nullptr);  // private table
  ASSERT_TRUE(built.ok());
  auto added = engine.AddBuilt(std::move(built).value());
  EXPECT_TRUE(added.status().IsInvalidArgument());

  auto shared = TwigMBuilder::Build("//a", nullptr, TwigMachine::Options(),
                                    engine.symbols());
  ASSERT_TRUE(shared.ok());
  EXPECT_TRUE(engine.AddBuilt(std::move(shared).value()).ok());
  EXPECT_TRUE(engine.RunString("<a/>").ok());
}

TEST(MultiQueryDispatchTest, MemoryLimitAppliesToBufferedText) {
  // The dispatcher buffers text centrally; a machine's memory ceiling must
  // still stop a pathological text node, as per-machine buffering did.
  MultiQueryEngine engine;
  TwigMachine::Options options;
  options.memory_limit_bytes = 128;
  ASSERT_TRUE(engine.AddQuery("//a/text()", nullptr, options).ok());
  std::string doc = "<r><a>" + std::string(4096, 'x') + "</a></r>";
  Status s = engine.RunString(doc);
  EXPECT_TRUE(s.IsResourceExhausted()) << s;
}

TEST(MultiQueryDispatchTest, DocumentVocabularyDoesNotGrowSharedTable) {
  // The parser stamps symbols by lookup only: tags and attributes the
  // queries never mention must not mint ids, or a long-lived pub/sub table
  // would grow with every distinct name the stream ever carries.
  MultiQueryEngine engine;
  VectorResultCollector results;
  ASSERT_TRUE(engine.AddQuery("//a", &results).ok());
  size_t before = engine.symbols()->size();
  ASSERT_TRUE(
      engine.RunString("<r><a/><unseen1/><unseen2 attr=\"v\"/></r>").ok());
  EXPECT_EQ(engine.symbols()->size(), before);
  EXPECT_EQ(results.size(), 1u);
}

TEST(MultiQueryDispatchTest, ResetStreamAllowsLateRegistration) {
  MultiQueryEngine engine;
  VectorResultCollector first, second;
  ASSERT_TRUE(engine.AddQuery("//a", &first).ok());
  ASSERT_TRUE(engine.RunString("<r><a/><b/></r>").ok());
  EXPECT_EQ(first.size(), 1u);
  engine.ResetStream();
  // The dispatch index is rebuilt to cover the late machine.
  ASSERT_TRUE(engine.AddQuery("//b", &second).ok());
  ASSERT_TRUE(engine.RunString("<r><a/><b/></r>").ok());
  EXPECT_EQ(first.size(), 2u);
  EXPECT_EQ(second.size(), 1u);
}

// The service's feed shape: every subscription names the shared dependent
// tag `val` under its own root tag, and the document opens each root once.
std::string SharedDependentTagDoc(int items) {
  std::string doc = "<feed>";
  for (int i = 0; i < items; ++i) {
    std::string tag = "item" + std::to_string(i);
    doc += "<" + tag + "><val>v" + std::to_string(i) +
           "</val><aux>x</aux></" + tag + ">";
  }
  return doc + "</feed>";
}

std::string ItemValQuery(int i) {
  return "//item" + std::to_string(i) + "/val/text()";
}

// The visit counters one document adds to `before`.
DispatchStats VisitDelta(const DispatchStats& before,
                         const DispatchStats& after) {
  DispatchStats d;
  d.start_events = after.start_events - before.start_events;
  d.start_visits = after.start_visits - before.start_visits;
  d.end_visits = after.end_visits - before.end_visits;
  d.text_nodes = after.text_nodes - before.text_nodes;
  d.text_visits = after.text_visits - before.text_visits;
  d.broadcast_visits = after.broadcast_visits - before.broadcast_visits;
  return d;
}

void ExpectSameVisits(const DispatchStats& a, const DispatchStats& b) {
  EXPECT_EQ(a.start_events, b.start_events);
  EXPECT_EQ(a.start_visits, b.start_visits);
  EXPECT_EQ(a.end_visits, b.end_visits);
  EXPECT_EQ(a.text_nodes, b.text_nodes);
  EXPECT_EQ(a.text_visits, b.text_visits);
  EXPECT_EQ(a.broadcast_visits, b.broadcast_visits);
}

TEST(MultiQueryDispatchTest, SharedDependentTagVisitsOnlyLiveMachines) {
  // 64 subscriptions all name `val`, but only one item is open at a time:
  // a `val` event (and the text under it) is work for that one machine,
  // however many earlier items this document already touched.
  constexpr int kItems = 64;
  std::string doc = SharedDependentTagDoc(kItems);
  MultiQueryEngine engine;
  std::vector<std::unique_ptr<VectorResultCollector>> handlers;
  for (int i = 0; i < kItems; ++i) {
    handlers.push_back(std::make_unique<VectorResultCollector>());
    ASSERT_TRUE(engine.AddQuery(ItemValQuery(i), handlers.back().get()).ok());
  }
  ASSERT_TRUE(engine.RunString(doc).ok());
  for (int i = 0; i < kItems; ++i) {
    EXPECT_EQ(handlers[i]->SortedFragments(),
              SingleEngineRun(ItemValQuery(i), doc))
        << ItemValQuery(i);
  }
  const DispatchStats& ds = engine.dispatch_stats();
  EXPECT_EQ(ds.start_events, 1u + 3u * kItems);
  // item<i> (entry posting) + val (live) per item; aux and feed visit none.
  EXPECT_LE(ds.start_visits, 2 * ds.start_events);
  EXPECT_EQ(ds.start_visits, 2u * kItems);
  // Each text node reaches only the machine whose item encloses it.
  EXPECT_LE(ds.text_visits, ds.text_nodes);
  EXPECT_EQ(ds.broadcast_visits, 0u);
}

// Feed queries plus an element-output query (opens recordings), a
// context-bound attribute query and a query whose root stays live for the
// whole document, so the live set and the recorder set both churn.
std::vector<std::string> LifecycleQueries(int items) {
  std::vector<std::string> queries;
  for (int i = 0; i < items; ++i) queries.push_back(ItemValQuery(i));
  queries.push_back("//item3");
  queries.push_back("//item5//@k");
  queries.push_back("//feed//aux/text()");
  return queries;
}

std::string LifecycleDoc(int items) {
  std::string doc = SharedDependentTagDoc(items);
  // One attributed element inside item5 for the attribute step.
  std::string needle = "<item5><val>";
  doc.replace(doc.find(needle), needle.size(), "<item5><val k=\"5\">");
  return doc;
}

TEST(MultiQueryDispatchTest, LiveSetRecoversFromAbortedDocument) {
  constexpr int kItems = 16;
  std::vector<std::string> queries = LifecycleQueries(kItems);
  std::string doc = LifecycleDoc(kItems);

  // Reference: the final subscription set on a fresh engine.
  std::vector<std::string> final_queries = queries;
  final_queries[7] = "//item7/aux/text()";
  MultiQueryEngine fresh;
  for (const std::string& q : final_queries) {
    ASSERT_TRUE(fresh.AddQuery(q, nullptr).ok()) << q;
  }
  ASSERT_TRUE(fresh.RunString(doc).ok());
  DispatchStats clean = fresh.dispatch_stats();

  MultiQueryEngine engine;
  std::vector<std::unique_ptr<VectorResultCollector>> handlers;
  std::vector<QueryId> ids;
  for (size_t i = 0; i < queries.size(); ++i) {
    handlers.push_back(std::make_unique<VectorResultCollector>());
    TwigMachine::Options options;
    if (i == 7) options.memory_limit_bytes = 256;
    auto id = engine.AddQuery(queries[i], handlers.back().get(), options);
    ASSERT_TRUE(id.ok()) << queries[i];
    ids.push_back(id.value());
  }
  // Abort inside <item7><val>: the text node overruns item7's budget while
  // item7's machine (and the //feed machine) hold live entries.
  std::string poison = SharedDependentTagDoc(kItems);
  std::string needle = "<item7><val>v7";
  poison.replace(poison.find(needle), needle.size(),
                 "<item7><val>" + std::string(4096, 'y'));
  xml::SaxParserOptions record_options;
  record_options.symbols = engine.symbols();
  auto poison_log = xml::RecordEvents(poison, record_options);
  ASSERT_TRUE(poison_log.ok());
  EXPECT_TRUE(engine.RunEvents(poison_log.value()).IsResourceExhausted());

  engine.ResetStream();
  ASSERT_TRUE(engine.RemoveQuery(ids[7]).ok());
  auto replacement = engine.AddQuery(final_queries[7], handlers[7].get());
  ASSERT_TRUE(replacement.ok());
  for (auto& h : handlers) h->Clear();

  ASSERT_TRUE(engine.RunString(doc).ok());
  for (size_t i = 0; i < final_queries.size(); ++i) {
    EXPECT_EQ(handlers[i]->SortedFragments(),
              SingleEngineRun(final_queries[i], doc))
        << final_queries[i];
  }
  ExpectSameVisits(engine.dispatch_stats(), clean);
}

TEST(MultiQueryDispatchTest, ChainedDocumentsKeepIdenticalVisits) {
  // RunEvents chains documents with no ResetStream in between: the live
  // and recorder sets must be empty again at every boundary, so each
  // document's results and visit counts repeat exactly.
  constexpr int kItems = 16;
  constexpr int kDocs = 50;
  std::vector<std::string> queries = LifecycleQueries(kItems);
  std::string doc = LifecycleDoc(kItems);
  MultiQueryEngine engine;
  std::vector<std::unique_ptr<VectorResultCollector>> handlers;
  for (const std::string& q : queries) {
    handlers.push_back(std::make_unique<VectorResultCollector>());
    ASSERT_TRUE(engine.AddQuery(q, handlers.back().get()).ok()) << q;
  }
  xml::SaxParserOptions record_options;
  record_options.symbols = engine.symbols();
  auto log = xml::RecordEvents(doc, record_options);
  ASSERT_TRUE(log.ok());

  std::vector<std::vector<std::string>> expected;
  for (const std::string& q : queries) {
    expected.push_back(SingleEngineRun(q, doc));
  }
  DispatchStats first;
  for (int d = 0; d < kDocs; ++d) {
    DispatchStats before = engine.dispatch_stats();
    for (auto& h : handlers) h->Clear();
    ASSERT_TRUE(engine.RunEvents(log.value()).ok()) << "doc " << d;
    DispatchStats delta = VisitDelta(before, engine.dispatch_stats());
    if (d == 0) {
      first = delta;
      EXPECT_GT(first.broadcast_visits, 0u);  // recorder + attribute paths
    } else {
      ExpectSameVisits(delta, first);
    }
    for (size_t i = 0; i < queries.size(); ++i) {
      ASSERT_EQ(handlers[i]->SortedFragments(), expected[i])
          << queries[i] << " doc " << d;
    }
  }
}

}  // namespace
}  // namespace vitex::twigm
