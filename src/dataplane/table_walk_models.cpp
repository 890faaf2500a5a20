// ESwitch- and Lagopus-style switch models: both walk the table pipeline
// per packet; they differ in how each table's classifier is instantiated
// and in the fixed per-packet framework overhead.
#include <chrono>
#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dataplane/switch.hpp"
#include "obs/metrics.hpp"
#include "util/contract.hpp"

namespace maton::dp {

namespace {

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Common pipeline walker over per-table classifiers.
class TableWalkSwitch : public SwitchModel {
 public:
  TableWalkSwitch() { ensure_scratch(); }

  Status load(Program program) override {
    program_ = std::move(program);
    batch_chunk_size_ = &obs::MetricRegistry::global().histogram(
        "maton_dp_batch_chunk_size", {{"model", std::string(name())}});
    stages_.clear();
    stages_.resize(program_.tables.size());
    for (std::size_t t = 0; t < stages_.size(); ++t) build_stage(t);
    counters_.reset(program_, queues_);
    ensure_scratch();
    return Status::ok();
  }

  /// Table-walk models share one instance across replay queues: the
  /// classifiers' lookup paths are const, every queue gets its own
  /// heap-allocated scratch context, and the rule counters re-shard one
  /// shard per queue (zeroing them). Stage metrics are already sharded
  /// atomics. Rule updates must be quiesced relative to concurrent
  /// queue processing (the classifier rebuild is not).
  [[nodiscard]] bool configure_queues(std::size_t queues) override {
    expects(queues > 0, "need at least one replay queue");
    queues_ = queues;
    ensure_scratch();
    counters_.reset(program_, queues_);
    return true;
  }

  ExecResult process(const FlowKey& key) override {
    ExecResult result;
    if (program_.tables.empty()) return result;

    FlowKey state = key;
    std::optional<std::size_t> current = program_.entry;
    while (current.has_value()) {
      const std::size_t idx = *current;
      expects(idx < program_.tables.size(), "jump out of range");
      expects(result.tables_visited <= program_.tables.size(),
              "table graph cycle during processing");
      ++result.tables_visited;

      const Stage& stage = stages_[idx];
      const auto rule_idx = stage.classifier->lookup(state);
      if (!rule_idx.has_value()) {
        stage.metrics->misses->add();
        result.hit = false;
        result.out_port = 0;
        return result;
      }
      stage.metrics->hits->add();
      counters_.bump(idx, *rule_idx);
      const TableSpec& table = program_.tables[idx];
      const RuleView rule = table.rules[*rule_idx];
      for (const Action action : rule.actions) {
        if (action.kind == Action::Kind::kOutput) {
          result.out_port = action.value;
        } else {
          state.set(action.field, action.value);
        }
      }
      current = rule.goto_table.has_value() ? rule.goto_table : table.next;
    }
    result.hit = true;
    return result;
  }

  /// Stage-hoisted batch execution: packets advance through the table
  /// graph grouped by their current table, one lookup_batch dispatch per
  /// occupied table, so per-packet virtual dispatch disappears and the
  /// classifier kernels get whole chunks to prefetch over. Occupied
  /// tables are tracked on a FIFO worklist — a table is visited only when
  /// packets actually sit in its bucket, so deep pipelines never pay an
  /// every-round scan over all tables. Counter bumps are the same
  /// multiset as the scalar path (increments commute), and results are
  /// bit-identical.
  void process_batch(std::span<const FlowKey> keys,
                     std::span<ExecResult> results) override {
    process_batch_queue(0, keys, results);
  }

  void process_batch_queue(std::size_t queue,
                           std::span<const FlowKey> keys,
                           std::span<ExecResult> results) override {
    expects(queue < queues_, "replay queue not configured");
    run_batch(queue, *scratch_[queue], keys, results);
  }

  /// Update application: structural mutation and counter carry-over run
  /// per update in order (exact sequential semantics, including
  /// mid-sequence failures); the per-table index maintenance is
  /// delta-scoped. A same-priority modify first offers the change to the
  /// table's classifier via apply_modify — when the template can patch
  /// its index in place (value rewrite, point re-hash) no rebuild happens
  /// at all. Tables whose classifier declines, or that saw structural
  /// edits (insert/remove/re-position), are recompiled once per *touched
  /// table* instead of once per update; untouched tables cost nothing.
  Status apply_updates(std::span<const RuleUpdate> updates) override {
    Status result = Status::ok();
    for (const RuleUpdate& update : updates) {
      ApplyOutcome outcome;
      if (Status s = apply_update_to_program(program_, update, &outcome);
          !s.is_ok()) {
        result = s;
        break;
      }
      counters_.apply(update.table, outcome);
      Stage& stage = stages_[update.table];
      if (stage.rebuild_owed) continue;
      if (outcome.kind != ApplyOutcome::Kind::kModifiedInPlace ||
          !stage.classifier->apply_modify(program_.tables[update.table],
                                          outcome.index, update.target)) {
        stage.rebuild_owed = true;
        rebuild_.push_back(update.table);
      }
    }
    for (const std::size_t t : rebuild_) build_stage(t);
    rebuild_.clear();
    return result;
  }

  [[nodiscard]] Result<std::uint64_t> read_rule_counter(
      std::size_t table,
      const std::vector<FieldMatch>& target) const override {
    return counters_.read(program_, table, target);
  }

 protected:
  [[nodiscard]] virtual std::unique_ptr<Classifier> instantiate(
      const TableSpec& table) const = 0;

 private:
  /// Stage metric handles of one classifier template, resolved the first
  /// time this model builds that template, so the packet path records
  /// through raw pointers without touching the registry. Keyed by
  /// (model, template): the series count is bounded by the template
  /// inventory, not by the number of tables.
  struct TemplateMetrics {
    std::string tmpl;
    obs::Counter* hits = nullptr;
    obs::Counter* misses = nullptr;
    obs::Histogram* lookup_ns = nullptr;
    /// Chunks dispatched — shows which kernels carry traffic.
    obs::Counter* chunks = nullptr;
  };

  /// One table's datapath: its classifier and its template's handles.
  struct Stage {
    std::unique_ptr<Classifier> classifier;
    const TemplateMetrics* metrics = nullptr;
    bool rebuild_owed = false;  // queued in rebuild_ by apply_updates
  };

  /// (Re)builds table `t`'s classifier and points the stage at the
  /// handles of the template it chose.
  void build_stage(std::size_t t) {
    Stage& stage = stages_[t];
    stage.classifier = instantiate(program_.tables[t]);
    stage.metrics = &metrics_for(stage.classifier->name());
    stage.rebuild_owed = false;
  }

  const TemplateMetrics& metrics_for(std::string_view tmpl) {
    for (const TemplateMetrics& m : templates_) {
      if (m.tmpl == tmpl) return m;
    }
    auto& registry = obs::MetricRegistry::global();
    const obs::Labels labels{{"model", std::string(name())},
                             {"template", std::string(tmpl)}};
    TemplateMetrics& m = templates_.emplace_back();
    m.tmpl = tmpl;
    m.hits = &registry.counter("maton_dp_table_hits_total", labels);
    m.misses = &registry.counter("maton_dp_table_misses_total", labels);
    m.lookup_ns = &registry.histogram("maton_dp_table_lookup_ns", labels);
    m.chunks = &registry.counter("maton_dp_classifier_chunks_total", labels);
    return m;
  }

  /// Batch-walker scratch, one context per configured replay queue and
  /// reused across process_batch_queue calls so the steady-state path
  /// performs no allocations. Each context is heap-allocated separately
  /// so two queues' scratch never shares cache lines.
  struct QueueScratch {
    std::vector<FlowKey> states;
    std::vector<std::vector<std::uint32_t>> buckets;  // per-table frontier
    std::vector<std::uint32_t> moving;
    std::vector<FlowKey> gather;
    std::vector<std::size_t> rule_out;
    std::vector<std::uint32_t> worklist;  // FIFO of occupied buckets
    std::vector<std::uint8_t> queued;     // table ∈ worklist[head..)
  };

  void ensure_scratch() {
    scratch_.resize(queues_);
    for (auto& s : scratch_) {
      if (!s) s = std::make_unique<QueueScratch>();
    }
  }

  /// The stage-hoisted batch walker (see process_batch doc), bound to
  /// one queue's scratch and counter shard.
  void run_batch(std::size_t queue, QueueScratch& s,
                 std::span<const FlowKey> keys,
                 std::span<ExecResult> results) {
    expects(results.size() >= keys.size(),
            "process_batch result span too small");
    const std::size_t num_tables = program_.tables.size();
    for (std::size_t i = 0; i < keys.size(); ++i) results[i] = ExecResult{};
    if (num_tables == 0 || keys.empty()) return;

    expects(program_.entry < num_tables, "program entry out of range");
    // The walker classifies straight out of the caller's key array until
    // the first set-field action of the batch; only then are the keys
    // copied into the mutable per-queue states.
    const FlowKey* state_base = keys.data();
    s.buckets.resize(num_tables);
    for (auto& bucket : s.buckets) bucket.clear();
    for (std::size_t i = 0; i < keys.size(); ++i) {
      s.buckets[program_.entry].push_back(static_cast<std::uint32_t>(i));
    }
    s.worklist.clear();
    s.queued.assign(num_tables, 0);
    s.worklist.push_back(static_cast<std::uint32_t>(program_.entry));
    s.queued[program_.entry] = 1;

    // FIFO over occupied buckets. The pipeline graph is acyclic, so a
    // table re-enqueued while another drains terminates; each pop visits
    // a non-empty bucket exactly once.
    for (std::size_t head = 0; head < s.worklist.size(); ++head) {
      const std::size_t t = s.worklist[head];
      s.queued[t] = 0;
      {
        s.moving.swap(s.buckets[t]);
        s.buckets[t].clear();

        // Skip the gather copy when the bucket is a contiguous run of
        // packet indices (the common case: whole batches advance through
        // a linear pipeline together) — the classifier can read the
        // states array in place.
        bool contiguous = true;
        for (std::size_t m = 1; m < s.moving.size(); ++m) {
          if (s.moving[m] != s.moving[m - 1] + 1) {
            contiguous = false;
            break;
          }
        }
        std::span<const FlowKey> stage_keys;
        if (contiguous) {
          stage_keys = {state_base + s.moving.front(), s.moving.size()};
        } else {
          s.gather.clear();
          s.gather.reserve(s.moving.size());
          for (const std::uint32_t p : s.moving) {
            s.gather.push_back(state_base[p]);
          }
          stage_keys = s.gather;
        }
        s.rule_out.resize(s.moving.size());
        // Telemetry per stage dispatch, not per packet: two clock reads
        // and a handful of relaxed adds amortized over the whole chunk.
        std::uint64_t lookup_start = 0;
        if constexpr (obs::kEnabled) lookup_start = now_ns();
        const Stage& stage = stages_[t];
        stage.classifier->lookup_batch(stage_keys, s.rule_out);
        if constexpr (obs::kEnabled) {
          stage.metrics->lookup_ns->observe(
              static_cast<double>(now_ns() - lookup_start));
          stage.metrics->chunks->add();
          batch_chunk_size_->observe(static_cast<double>(s.moving.size()));
        }
        std::uint64_t stage_hits = 0;
        std::uint64_t stage_misses = 0;

        const TableSpec& table = program_.tables[t];
        for (std::size_t m = 0; m < s.moving.size(); ++m) {
          const std::uint32_t p = s.moving[m];
          ExecResult& result = results[p];
          expects(result.tables_visited <= num_tables,
                  "table graph cycle during batch processing");
          ++result.tables_visited;
          if (s.rule_out[m] == kNoRule) {
            ++stage_misses;
            result.hit = false;
            result.out_port = 0;
            continue;  // miss: packet leaves the pipeline
          }
          ++stage_hits;
          counters_.bump(t, s.rule_out[m], queue);
          const RuleView rule = table.rules[s.rule_out[m]];
          for (const Action action : rule.actions) {
            if (action.kind == Action::Kind::kOutput) {
              result.out_port = action.value;
            } else {
              if (state_base == keys.data()) {
                s.states.assign(keys.begin(), keys.end());
                state_base = s.states.data();
              }
              s.states[p].set(action.field, action.value);
            }
          }
          const std::optional<std::size_t> next =
              rule.goto_table.has_value() ? rule.goto_table : table.next;
          if (next.has_value()) {
            expects(*next < num_tables, "jump out of range");
            s.buckets[*next].push_back(p);
            if (s.queued[*next] == 0) {
              s.queued[*next] = 1;
              s.worklist.push_back(static_cast<std::uint32_t>(*next));
            }
          } else {
            result.hit = true;
          }
        }
        if (stage_hits != 0) stage.metrics->hits->add(stage_hits);
        if (stage_misses != 0) stage.metrics->misses->add(stage_misses);
        s.moving.clear();
      }
    }
  }

  Program program_;
  std::vector<Stage> stages_;
  RuleCounters counters_;
  /// At most one entry per template; a deque keeps the stages' pointers
  /// valid as templates are added.
  std::deque<TemplateMetrics> templates_;
  obs::Histogram* batch_chunk_size_ = nullptr;

  std::size_t queues_ = 1;
  std::vector<std::unique_ptr<QueueScratch>> scratch_;
  std::vector<std::size_t> rebuild_;  // apply_updates scratch
};

class ESwitchModel final : public TableWalkSwitch {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "eswitch";
  }
  /// ESwitch is a lean DPDK datapath; classifier work dominates.
  [[nodiscard]] double per_packet_overhead_ns() const noexcept override {
    return 45.0;
  }

 protected:
  std::unique_ptr<Classifier> instantiate(
      const TableSpec& table) const override {
    // Datapath specialization from ESwitch's template inventory.
    return select_classifier_eswitch(table);
  }
};

class LagopusModel final : public TableWalkSwitch {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "lagopus";
  }
  /// Lagopus spends most of a packet's budget in generic framework code
  /// (dispatch, metadata copies); that fixed cost is why Table 1 shows it
  /// agnostic to the representation.
  [[nodiscard]] double per_packet_overhead_ns() const noexcept override {
    return 660.0;
  }

 protected:
  std::unique_ptr<Classifier> instantiate(
      const TableSpec& table) const override {
    // One generic wildcard lookup path for everything.
    return make_tss(table);
  }
};

}  // namespace

std::unique_ptr<SwitchModel> make_eswitch_model() {
  return std::make_unique<ESwitchModel>();
}

std::unique_ptr<SwitchModel> make_lagopus_model() {
  return std::make_unique<LagopusModel>();
}

}  // namespace maton::dp
