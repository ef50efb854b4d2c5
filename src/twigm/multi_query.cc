#include "twigm/multi_query.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

namespace vitex::twigm {

MultiQueryEngine::MultiQueryEngine(xml::SaxParserOptions sax_options)
    : MultiQueryEngine(std::move(sax_options), Options()) {}

MultiQueryEngine::MultiQueryEngine(xml::SaxParserOptions sax_options,
                                   Options options)
    : options_(options),
      symbols_(sax_options.symbols != nullptr ? sax_options.symbols
                                              : &owned_symbols_),
      dispatcher_(this) {
  sax_options.symbols = symbols_;
  sax_ = std::make_unique<xml::SaxParser>(&dispatcher_, sax_options);
}

// ---------------------------------------------------------------------------
// Registration: hash-consed plan cache.
// ---------------------------------------------------------------------------

void MultiQueryEngine::GroupFanout::OnGroupResult(std::string_view fragment,
                                                  uint64_t sequence,
                                                  uint64_t group_mask) {
  while (group_mask != 0) {
    int g = __builtin_ctzll(group_mask);
    group_mask &= group_mask - 1;
    for (QueryId member : plan_->group_members[static_cast<size_t>(g)]) {
      ResultHandler* handler = owner_->subs_[member]->handler;
      if (handler != nullptr) handler->OnResult(fragment, sequence);
    }
  }
}

QueryId MultiQueryEngine::AllocateSubscription(
    std::unique_ptr<Subscription> sub) {
  QueryId id;
  if (!free_slots_.empty()) {
    id = free_slots_.back();
    free_slots_.pop_back();
    subs_[id] = std::move(sub);
  } else {
    id = subs_.size();
    subs_.push_back(std::move(sub));
  }
  return id;
}

uint32_t MultiQueryEngine::AllocateInstance(
    std::unique_ptr<PlanInstance> instance) {
  uint32_t index;
  if (!free_instances_.empty()) {
    index = free_instances_.back();
    free_instances_.pop_back();
    instances_[index] = std::move(instance);
  } else {
    index = static_cast<uint32_t>(instances_.size());
    instances_.push_back(std::move(instance));
  }
  return index;
}

Status MultiQueryEngine::RebindInstance(PlanInstance* instance) {
  instance->bindings.group_count = instance->group_params.size();
  instance->bindings.params.clear();
  instance->bindings.params.reserve(instance->group_params.size() *
                                    instance->bindings.slot_count);
  for (const auto& row : instance->group_params) {
    assert(row.size() == instance->bindings.slot_count);
    instance->bindings.params.insert(instance->bindings.params.end(),
                                     row.begin(), row.end());
  }
  return instance->built->machine().BindPlan(&instance->bindings,
                                             instance->sink.get());
}

void MultiQueryEngine::DestroyInstance(uint32_t index) {
  PlanInstance* instance = instances_[index].get();
  if (instance->shared) {
    auto it = plan_index_.find(instance->plan_hash);
    if (it != plan_index_.end()) {
      auto& bucket = it->second;
      bucket.erase(std::find(bucket.begin(), bucket.end(), index));
      if (bucket.empty()) plan_index_.erase(it);
    }
  }
  instances_[index] = nullptr;
  free_instances_.push_back(index);
}

Result<QueryId> MultiQueryEngine::AddDedicated(
    std::unique_ptr<BuiltMachine> built) {
  auto instance = std::make_unique<PlanInstance>();
  instance->built = std::move(built);
  instance->shared = false;
  instance->group_params.push_back({});
  instance->group_members.push_back({});
  instance->subscriber_count = 1;
  uint32_t index = AllocateInstance(std::move(instance));

  auto sub = std::make_unique<Subscription>();
  sub->instance = index;
  sub->group = 0;
  sub->handler = instances_[index]->built->machine().results();
  QueryId id = AllocateSubscription(std::move(sub));
  instances_[index]->group_members[0].push_back(id);
  ++plan_misses_;
  dispatcher_.InvalidateIndex();
  return id;
}

Result<QueryId> MultiQueryEngine::Register(
    std::unique_ptr<xpath::Query> query, ResultHandler* handler,
    TwigMachine::Options options, std::unique_ptr<BuiltMachine> built) {
  // Cache identity: the structural skeleton plus every machine option that
  // changes execution (subscriptions with different memory ceilings must
  // not share a machine).
  const xpath::Query& canon_source =
      built != nullptr ? built->query() : *query;
  xpath::CanonicalQuery canon = xpath::Canonicalize(canon_source);
  std::string opt_suffix =
      "|mem=" + std::to_string(options.memory_limit_bytes);
  std::string plan_key = canon.key + opt_suffix;
  uint64_t plan_hash = xpath::FnvHash64(opt_suffix, canon.hash);

  // Join an existing instance of this skeleton if one has room: the same
  // parameter vector joins its group (pure fan-out member), a new vector
  // adds a group (one more mask bit), and a skeleton that outgrew 64 groups
  // chains to the next instance in the bucket.
  auto bucket_it = plan_index_.find(plan_hash);
  if (bucket_it != plan_index_.end()) {
    for (uint32_t index : bucket_it->second) {
      PlanInstance* instance = instances_[index].get();
      if (instance->plan_key != plan_key) continue;  // hash collision
      size_t group = instance->group_params.size();
      for (size_t g = 0; g < instance->group_params.size(); ++g) {
        if (instance->group_params[g] == canon.params) {
          group = g;
          break;
        }
      }
      bool new_group = group == instance->group_params.size();
      if (new_group && group >= 64) continue;  // instance full, try next
      auto sub = std::make_unique<Subscription>();
      sub->instance = index;
      sub->group = static_cast<uint32_t>(group);
      sub->handler = handler;
      // The subscription's own query record: the one compiled for it, or —
      // for a pre-built machine being discarded in favor of this instance —
      // the query taken out of that machine (no recompilation).
      sub->query = query != nullptr ? std::move(query)
                                    : std::move(*built).TakeQuery();
      QueryId id = AllocateSubscription(std::move(sub));
      if (new_group) {
        instance->group_params.push_back(std::move(canon.params));
        instance->group_members.push_back({});
        Status rebound = RebindInstance(instance);
        assert(rebound.ok());
        (void)rebound;
      }
      instance->group_members[group].push_back(id);
      ++instance->subscriber_count;
      ++plan_hits_;
      dispatcher_.InvalidateIndex();
      return id;
    }
  }

  // First subscription of this skeleton (or all instances full): compile a
  // fresh plan instance. An AddBuilt machine is adopted as the skeleton
  // machine; an AddQuery subscription moves its Query into the new machine.
  if (built == nullptr) {
    VITEX_ASSIGN_OR_RETURN(
        BuiltMachine fresh,
        TwigMBuilder::Build(std::move(query), /*results=*/nullptr, options,
                            symbols_));
    built = std::make_unique<BuiltMachine>(std::move(fresh));
  }
  auto instance = std::make_unique<PlanInstance>();
  instance->built = std::move(built);
  instance->shared = true;
  instance->plan_key = std::move(plan_key);
  instance->plan_hash = plan_hash;
  instance->bindings.slot_count = canon.params.size();
  instance->group_params.push_back(std::move(canon.params));
  instance->group_members.push_back({});
  instance->subscriber_count = 1;
  instance->sink = std::make_unique<GroupFanout>(this, instance.get());
  VITEX_RETURN_IF_ERROR(RebindInstance(instance.get()));
  uint32_t index = AllocateInstance(std::move(instance));
  plan_index_[plan_hash].push_back(index);

  auto sub = std::make_unique<Subscription>();
  sub->instance = index;
  sub->group = 0;
  sub->handler = handler;
  sub->query = std::move(query);  // null when moved into the machine above
  QueryId id = AllocateSubscription(std::move(sub));
  instances_[index]->group_members[0].push_back(id);
  ++plan_misses_;
  dispatcher_.InvalidateIndex();
  return id;
}

Result<QueryId> MultiQueryEngine::AddQuery(std::string_view xpath,
                                           ResultHandler* results,
                                           TwigMachine::Options options) {
  if (started_) {
    return Status::InvalidArgument(
        "queries may be registered only at document boundaries");
  }
  if (!options_.share_plans) {
    VITEX_ASSIGN_OR_RETURN(
        BuiltMachine built,
        TwigMBuilder::Build(xpath, results, options, symbols_));
    return AddDedicated(std::make_unique<BuiltMachine>(std::move(built)));
  }
  VITEX_ASSIGN_OR_RETURN(xpath::Query compiled,
                         xpath::ParseAndCompile(xpath));
  return Register(std::make_unique<xpath::Query>(std::move(compiled)),
                  results, options, /*built=*/nullptr);
}

Result<QueryId> MultiQueryEngine::AddBuilt(BuiltMachine built) {
  if (started_) {
    return Status::InvalidArgument(
        "queries may be registered only at document boundaries");
  }
  if (&built.machine().symbols() != symbols_) {
    return Status::InvalidArgument(
        "machine was built against a different SymbolTable; build it with "
        "TwigMBuilder::Build(..., engine.symbols()) so dispatch symbols "
        "agree");
  }
  auto owned = std::make_unique<BuiltMachine>(std::move(built));
  if (!options_.share_plans) return AddDedicated(std::move(owned));
  // Register against the machine's own compiled query: a join takes the
  // Query out of the discarded machine for the subscription's record, an
  // adopt moves the whole machine in — either way nothing is recompiled.
  ResultHandler* handler = owned->machine().results();
  TwigMachine::Options options = owned->machine().options();
  return Register(/*query=*/nullptr, handler, options, std::move(owned));
}

Status MultiQueryEngine::RemoveQuery(QueryId id) {
  if (started_) {
    return Status::InvalidArgument(
        "queries may be removed only at document boundaries");
  }
  if (!has_query(id)) {
    return Status::InvalidArgument("no live query with this id");
  }
  Subscription& sub = *subs_[id];
  PlanInstance* instance = instances_[sub.instance].get();
  auto& members = instance->group_members[sub.group];
  members.erase(std::find(members.begin(), members.end(), id));
  --instance->subscriber_count;
  if (instance->subscriber_count == 0) {
    // Last subscriber of this plan: the machine goes with it.
    DestroyInstance(sub.instance);
  } else if (members.empty()) {
    // The group's last subscriber left: drop its mask bit and renumber the
    // groups above it. Safe at a document boundary — no masks are live.
    instance->group_params.erase(instance->group_params.begin() + sub.group);
    instance->group_members.erase(instance->group_members.begin() +
                                  sub.group);
    for (size_t g = 0; g < instance->group_members.size(); ++g) {
      for (QueryId member : instance->group_members[g]) {
        subs_[member]->group = static_cast<uint32_t>(g);
      }
    }
    VITEX_RETURN_IF_ERROR(RebindInstance(instance));
  }
  subs_[id] = nullptr;
  free_slots_.push_back(id);
  // The next document rebuilds the dispatch index, compacting any dropped
  // machine out of every posting list and interest set.
  dispatcher_.InvalidateIndex();
  return Status::OK();
}

const xpath::Query& MultiQueryEngine::query(QueryId id) const {
  const Subscription& sub = *subs_[id];
  if (sub.query != nullptr) return *sub.query;
  return instances_[sub.instance]->built->query();
}

Status MultiQueryEngine::Feed(std::string_view chunk) {
  started_ = true;
  return sax_->Feed(chunk);
}

Status MultiQueryEngine::Finish() { return sax_->Finish(); }

Status MultiQueryEngine::RunString(std::string_view document) {
  VITEX_RETURN_IF_ERROR(Feed(document));
  return Finish();
}

Status MultiQueryEngine::RunEvents(const xml::EventLog& log) {
  if (started_) {
    return Status::InvalidArgument(
        "documents may be replayed only at document boundaries (mid-stream "
        "state is in flight; Finish or ResetStream first)");
  }
  started_ = true;
  Status status = log.Replay(&dispatcher_);
  if (!status.ok()) return status;  // poisoned mid-document: ResetStream
  // The document completed: back at a boundary, open for Add/RemoveQuery
  // and the next RunEvents.
  started_ = false;
  return status;
}

void MultiQueryEngine::ResetStream() {
  sax_->Reset();
  for (auto& instance : instances_) {
    if (instance != nullptr) instance->built->machine().Reset();
  }
  dispatcher_.ResetStream();
  dispatch_stats_ = DispatchStats();
  started_ = false;
}

size_t MultiQueryEngine::total_live_bytes() const {
  size_t total = dispatcher_.pending_text_bytes();
  for (const auto& instance : instances_) {
    if (instance != nullptr) {
      total += instance->built->machine().memory().live_bytes();
    }
  }
  return total;
}

// ---------------------------------------------------------------------------
// Dispatcher.
// ---------------------------------------------------------------------------

void MultiQueryEngine::Dispatcher::BuildIndex() {
  size_t n = owner_->instances_.size();
  // Size postings to the query vocabulary, not the table: the largest
  // symbol any live machine interned. Dispatch already treats out-of-range
  // symbols as "no interested query", which is exactly what a document-only
  // symbol is — and this keeps index rebuilds off the SymbolTable, so a
  // shared table may grow concurrently on another thread (DESIGN.md §5).
  size_t posting_size = 0;
  for (const auto& instance : owner_->instances_) {
    if (instance == nullptr) continue;
    for (const auto& entry : instance->built->machine().element_index()) {
      posting_size =
          std::max(posting_size, static_cast<size_t>(entry.first) + 1);
    }
  }
  postings_.assign(posting_size, {});
  dependent_postings_.assign(posting_size, {});
  info_.assign(n, MachineInfo());
  element_broadcast_.clear();
  attribute_machines_.clear();
  bare_attribute_machines_.clear();
  text_machines_.clear();
  bare_text_machines_.clear();
  visit_stamp_.assign(n, 0);
  event_id_ = 0;
  // Every machine starts the next document untouched (stamp 0 is stale:
  // doc_gen_ only ever advances past it).
  machine_doc_gen_.assign(n, 0);
  touched_machines_.clear();
  // Rebuilds happen only at document boundaries, where no machine has live
  // entries or an open recording; n may have changed, so both sets restart.
  live_.Resize(n);
  recorders_.Resize(n);
  min_memory_limit_ = 0;
  for (size_t i = 0; i < n; ++i) {
    if (owner_->instances_[i] == nullptr) continue;  // removed plan
    const TwigMachine& m = owner_->instances_[i]->built->machine();
    size_t limit = m.options().memory_limit_bytes;
    if (limit != 0 && (min_memory_limit_ == 0 || limit < min_memory_limit_)) {
      min_memory_limit_ = limit;
    }
    MachineInfo& mi = info_[i];
    mi.wants_text = m.has_text_nodes();
    mi.wants_attributes = m.has_unanchored_attributes();
    for (const auto& entry : m.element_index()) {
      // Query names were interned at build time, before any document tag,
      // so they are always inside the table the postings were sized to.
      assert(entry.first < postings_.size());
      // A symbol goes to the entry postings if any node naming it is a
      // query root (pushable with empty stacks); symbols named only by
      // non-root nodes are no-ops until the machine has live entries, so
      // they dispatch through the live set instead.
      bool is_entry = false;
      for (int id : entry.second) {
        if (m.node_is_root(id)) {
          is_entry = true;
          break;
        }
      }
      (is_entry ? postings_ : dependent_postings_)[entry.first].push_back(
          static_cast<uint32_t>(i));
    }
    if (m.has_element_wildcard()) {
      element_broadcast_.push_back(static_cast<uint32_t>(i));
    }
    if (mi.wants_attributes) {
      attribute_machines_.push_back(static_cast<uint32_t>(i));
      if (m.query().root()->IsAttributeNode()) {
        bare_attribute_machines_.push_back(static_cast<uint32_t>(i));
      }
    }
    if (mi.wants_text) {
      text_machines_.push_back(static_cast<uint32_t>(i));
      if (m.has_bare_text()) {
        bare_text_machines_.push_back(static_cast<uint32_t>(i));
      }
    }
  }
  // Plan-sharing shape as of this (re)build: how many subscriptions the
  // visit counters above are serving through how many machines/skeletons.
  DispatchStats& ds = owner_->dispatch_stats_;
  ds.subscriptions = owner_->query_count();
  ds.machines = owner_->machine_count();
  std::unordered_set<std::string_view> keys;
  uint64_t dedicated = 0;
  for (const auto& instance : owner_->instances_) {
    if (instance == nullptr) continue;
    if (instance->shared) {
      keys.insert(instance->plan_key);
    } else {
      ++dedicated;  // a private machine is its own plan
    }
  }
  ds.plans = keys.size() + dedicated;
  ds.plan_hits = owner_->plan_hits_;
  ds.plan_misses = owner_->plan_misses_;
  index_built_ = true;
}

void MultiQueryEngine::Dispatcher::ResetStream() {
  // Machines may be registered before the next document; rebuild then.
  index_built_ = false;
  targets_.clear();
  event_id_ = 0;
  // The engine just reset every machine eagerly, so nothing is mid-document;
  // the next StartDocument re-touches machines as events reach them. An
  // aborted document may have left members in both sets: unwind them,
  // O(members), not O(machines).
  touched_machines_.clear();
  live_.Clear();
  recorders_.Clear();
  open_symbols_.clear();
  pending_text_.Clear();
}

void MultiQueryEngine::Dispatcher::MachineSet::Resize(size_t n) {
  members_.clear();
  members_.reserve(n);
  pos_.assign(n, kAbsent);
}

void MultiQueryEngine::Dispatcher::MachineSet::Assign(uint32_t i,
                                                      bool present) {
  if (present == contains(i)) return;
  if (present) {
    pos_[i] = static_cast<uint32_t>(members_.size());
    members_.push_back(i);
    return;
  }
  uint32_t last = members_.back();
  members_[pos_[i]] = last;
  pos_[last] = pos_[i];
  members_.pop_back();
  pos_[i] = kAbsent;
}

void MultiQueryEngine::Dispatcher::MachineSet::Clear() {
  for (uint32_t i : members_) pos_[i] = kAbsent;
  members_.clear();
}

void MultiQueryEngine::Dispatcher::AddTarget(size_t i, bool broadcast) {
  if (visit_stamp_[i] == event_id_) return;
  visit_stamp_[i] = event_id_;
  targets_.push_back(static_cast<uint32_t>(i));
  if (broadcast) ++owner_->dispatch_stats_.broadcast_visits;
}

template <typename InList>
void MultiQueryEngine::Dispatcher::AddLiveTargets(
    const std::vector<uint32_t>& list, bool broadcast, InList in_list) {
  if (list.size() <= live_.size()) {
    for (uint32_t i : list) {
      if (live_.contains(i)) AddTarget(i, broadcast);
    }
  } else {
    for (uint32_t i : live_.members()) {
      if (in_list(i)) AddTarget(i, broadcast);
    }
  }
}

void MultiQueryEngine::Dispatcher::CollectTagTargets(Symbol symbol,
                                                     bool with_attributes) {
  targets_.clear();
  ++event_id_;
  if (symbol != kNoSymbol && symbol < postings_.size()) {
    for (uint32_t i : postings_[symbol]) AddTarget(i, /*broadcast=*/false);
    // Dependent symbols (named only by non-root query nodes) are strict
    // no-ops for a machine with no live stack entries. On the live-set
    // side the machine's own tag index stands in for the posting (an
    // entry-symbol hit there was already added above and dedups).
    AddLiveTargets(dependent_postings_[symbol], /*broadcast=*/false,
                   [&](uint32_t i) { return machine(i).names_tag(symbol); });
  }
  for (uint32_t i : element_broadcast_) AddTarget(i, /*broadcast=*/true);
  for (uint32_t i : recorders_.members()) AddTarget(i, /*broadcast=*/true);
  if (with_attributes) {
    // Unanchored attribute steps can match attributes of any element:
    // unconditionally for bare steps like //@id, otherwise only while a
    // context entry is open (//a//@id), i.e. for live machines.
    for (uint32_t i : bare_attribute_machines_) {
      AddTarget(i, /*broadcast=*/true);
    }
    AddLiveTargets(attribute_machines_, /*broadcast=*/true,
                   [&](uint32_t i) { return info_[i].wants_attributes; });
  }
}

void MultiQueryEngine::Dispatcher::SyncSets(uint32_t i) {
  const TwigMachine& m = machine(i);
  live_.Assign(i, m.live_stack_entries() > 0);
  recorders_.Assign(i, m.recording_active());
}

Status MultiQueryEngine::Dispatcher::FlushTextNode() {
  if (pending_text_.empty()) return Status::OK();
  targets_.clear();
  ++event_id_;
  // A text step with a context (//a/text()) can only use the node while
  // that context is open — a live machine; //text() takes every node.
  for (uint32_t i : bare_text_machines_) AddTarget(i, /*broadcast=*/false);
  AddLiveTargets(text_machines_, /*broadcast=*/false,
                 [&](uint32_t i) { return info_[i].wants_text; });
  for (uint32_t i : recorders_.members()) AddTarget(i, /*broadcast=*/true);
  ++owner_->dispatch_stats_.text_nodes;
  owner_->dispatch_stats_.text_visits += targets_.size();
  Status status = Status::OK();
  for (uint32_t i : targets_) {
    status = TouchMachine(i);
    if (!status.ok()) break;
    status = machine(i).TextNode(pending_text_.buffer, pending_text_.depth,
                                 pending_text_.sequence);
    if (!status.ok()) break;
  }
  pending_text_.Clear();
  return status;
}

Status MultiQueryEngine::Dispatcher::StartDocument() {
  if (!index_built_) BuildIndex();
  // Per-document dispatch state: clearing here (not only in ResetStream)
  // lets RunEvents chain documents without an explicit stream reset. After
  // a clean document both sets are already empty (EndDocument's empty-stack
  // invariant), so their O(members) unwinds cost nothing.
  open_symbols_.clear();
  live_.Clear();
  recorders_.Clear();
  pending_text_.Clear();
  // Machines are NOT reset here: bumping doc_gen_ makes every machine's
  // touch stamp stale, and TouchMachine() resets each one on the first
  // event dispatched to it. A machine no event reaches stays exactly as
  // its last document left it — stacks empty (EndDocument invariant), no
  // recording open — so skipping it is unobservable, and the per-document
  // floor is O(touched machines) instead of O(registered plans)
  // (DESIGN.md §12).
  ++doc_gen_;
  touched_machines_.clear();
  return Status::OK();
}

Status MultiQueryEngine::Dispatcher::TouchMachine(uint32_t i) {
  if (machine_doc_gen_[i] == doc_gen_) return Status::OK();
  machine_doc_gen_[i] = doc_gen_;
  touched_machines_.push_back(i);
  return machine(i).StartDocument();
}

Status MultiQueryEngine::Dispatcher::StartElement(
    const xml::StartElementEvent& event) {
  VITEX_RETURN_IF_ERROR(FlushTextNode());
  // The engine's own parser always stamps (symbol or kAbsentSymbol).
  // Unstamped events only arrive from replayed logs recorded without our
  // table; resolve them here so dispatch matches the parse path. (Stamped
  // replay — the vitex::Service path — never touches the table.)
  Symbol symbol = event.symbol;
  if (symbol == kNoSymbol) symbol = owner_->symbols_->Lookup(event.name);
  open_symbols_.push_back(symbol);
  CollectTagTargets(symbol, !event.attributes.empty());
  ++owner_->dispatch_stats_.start_events;
  owner_->dispatch_stats_.start_visits += targets_.size();
  for (uint32_t i : targets_) {
    VITEX_RETURN_IF_ERROR(TouchMachine(i));
    VITEX_RETURN_IF_ERROR(machine(i).StartElement(event));
    SyncSets(i);
  }
  return Status::OK();
}

Status MultiQueryEngine::Dispatcher::EndElement(std::string_view name,
                                                int depth) {
  VITEX_RETURN_IF_ERROR(FlushTextNode());
  assert(!open_symbols_.empty());
  Symbol symbol = open_symbols_.back();
  open_symbols_.pop_back();
  CollectTagTargets(symbol, /*with_attributes=*/false);
  ++owner_->dispatch_stats_.end_events;
  owner_->dispatch_stats_.end_visits += targets_.size();
  for (uint32_t i : targets_) {
    VITEX_RETURN_IF_ERROR(TouchMachine(i));
    VITEX_RETURN_IF_ERROR(machine(i).EndElement(name, depth));
    SyncSets(i);
  }
  return Status::OK();
}

Status MultiQueryEngine::Dispatcher::Text(const xml::TextEvent& event) {
  // No query selects text and no recording is open: nothing can ever
  // consume this node, so don't even copy it. Both sets change only at tag
  // events, where the buffer is flushed first, so skipping here is sound.
  if (text_machines_.empty() && recorders_.empty()) {
    return Status::OK();
  }
  // Central coalescing: pieces merge here once instead of in every machine;
  // the node is dispatched whole at the next tag boundary. Long runs arrive
  // in bounded pieces, so the buffer — like each machine's own under
  // per-machine buffering — must honor the configured memory ceiling.
  pending_text_.Append(event);
  if (min_memory_limit_ != 0 &&
      pending_text_.buffer.size() > min_memory_limit_) {
    return Status::ResourceExhausted(
        "buffered text exceeds the configured machine memory limit");
  }
  return Status::OK();
}

Status MultiQueryEngine::Dispatcher::EndDocument() {
  VITEX_RETURN_IF_ERROR(FlushTextNode());
  // Only machines the document actually reached have per-document state to
  // finish (buffered text, the empty-stack invariant check); untouched
  // machines were already verified clean by the last document that used
  // them.
  for (uint32_t i : touched_machines_) {
    VITEX_RETURN_IF_ERROR(machine(i).EndDocument());
  }
  return Status::OK();
}

}  // namespace vitex::twigm
