// fd_maintenance: the paper's own question, in process on one thread. Set
// up once (parse and index the document, compile the FDs and update
// classes, run the independence criterion for every pair), then apply a
// seeded stream of point updates and re-check with fd::CheckFd exactly the
// FDs the criterion did not clear. Every update has a known verdict: the
// stream alternates probes that break an FD and restores that mend it.

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>

#include "bench.h"
#include "fd/fd_checker.h"
#include "fd/fd_index.h"
#include "fd/functional_dependency.h"
#include "independence/matrix.h"
#include "pattern/pattern_parser.h"
#include "schema/schema.h"
#include "update/update_class.h"
#include "update/update_ops.h"
#include "xml/xml_io.h"

namespace perfbench {
namespace {

using rtp::serve::JsonValue;
using rtp::xml::NodeId;

struct FdInput {
  std::string name;
  std::string text;
  int64_t mappings = 0;  // the same after every update
  int64_t groups = 0;
};

struct ClassInput {
  std::string name;
  std::string text;
  std::string label;  // label of the selected (updated) node
  std::vector<std::pair<int64_t, int64_t>> targets;
};

// One distinct update: its class, the value it writes and how.
struct Update {
  size_t cls;
  std::string value;
  bool structural;
};

struct MaintOp {
  uint32_t update;  // index into MaintInputs::updates
  uint32_t target;  // index into the class's targets
  bool satisfied;   // verdict of the FD the class can break, after the op
};

struct MaintInputs {
  std::string schema;
  std::string xml;
  int64_t nodes = 0;
  std::vector<FdInput> fds;
  std::vector<ClassInput> classes;
  std::vector<std::vector<bool>> independent;  // [fd][class], documented
  std::vector<Update> updates;
  // The update stream. Each block of it leaves the document as it found
  // it, so the stream is replayed from the start when a window outlasts it.
  std::vector<MaintOp> ops;
};

MaintInputs LoadInputs(const JsonValue& in) {
  MaintInputs out;
  out.schema = in.FindString("schema");
  out.xml = in.FindString("xml");
  out.nodes = in.FindInt("nodes");
  for (const JsonValue& f : in.Find("fds")->array_items()) {
    const JsonValue* e = f.Find("expect");
    out.fds.push_back(FdInput{f.FindString("name"), f.FindString("text"),
                              e->FindInt("mappings"), e->FindInt("groups")});
  }
  for (const JsonValue& c : in.Find("classes")->array_items()) {
    ClassInput cls{c.FindString("name"), c.FindString("text"),
                   c.FindString("label"), {}};
    for (const JsonValue& t : c.Find("targets")->array_items()) {
      cls.targets.emplace_back(t.array_items()[0].int_value(),
                               t.array_items()[1].int_value());
    }
    out.classes.push_back(std::move(cls));
  }
  for (const JsonValue& row : in.Find("independent")->array_items()) {
    std::vector<bool> cells;
    for (const JsonValue& cell : row.array_items()) {
      cells.push_back(cell.bool_value());
    }
    out.independent.push_back(std::move(cells));
  }
  std::map<std::tuple<size_t, std::string, bool>, uint32_t> update_index;
  for (const JsonValue& op : in.Find("ops")->array_items()) {
    const auto& v = op.array_items();
    Update u{static_cast<size_t>(v[0].int_value()), v[3].string_value(),
             v[2].int_value() != 0};
    auto [it, added] = update_index.emplace(
        std::make_tuple(u.cls, u.value, u.structural),
        static_cast<uint32_t>(out.updates.size()));
    if (added) out.updates.push_back(std::move(u));
    out.ops.push_back(MaintOp{it->second,
                              static_cast<uint32_t>(v[1].int_value()),
                              v[4].int_value() != 0});
  }
  return out;
}

// Everything one cold start builds. The alphabet is held by pointer
// because documents, patterns and the schema keep pointers to it.
struct Engine {
  std::unique_ptr<rtp::Alphabet> alphabet;
  std::unique_ptr<rtp::xml::Document> doc;
  std::optional<rtp::schema::Schema> schema;
  std::vector<rtp::fd::FunctionalDependency> fds;
  std::vector<rtp::update::UpdateClass> classes;
  rtp::independence::IndependenceMatrix matrix;
};

// One cold start. `tracer` and `profiles` are set on the traced run only.
bool Setup(const MaintInputs& in, Engine* e, Tracer* tracer,
           std::vector<rtp::obs::QueryProfile>* profiles) {
  e->alphabet = std::make_unique<rtp::Alphabet>();
  {
    ScopedSpan span(tracer, "xml.parse", -1);
    auto doc = rtp::xml::ParseXml(e->alphabet.get(), in.xml);
    if (!doc.ok()) return false;
    e->doc = std::make_unique<rtp::xml::Document>(std::move(doc).value());
  }
  {
    ScopedSpan span(tracer, "xml.index", -1);
    e->doc->Snapshot();
  }
  auto schema = rtp::schema::Schema::Parse(e->alphabet.get(), in.schema);
  if (!schema.ok()) return false;
  e->schema.emplace(std::move(schema).value());
  for (const FdInput& f : in.fds) {
    ScopedSpan span(tracer, "pattern.parse", -1);
    auto parsed = rtp::pattern::ParsePattern(e->alphabet.get(), f.text);
    if (!parsed.ok()) return false;
    auto fd =
        rtp::fd::FunctionalDependency::FromParsed(std::move(parsed).value());
    if (!fd.ok()) return false;
    e->fds.push_back(std::move(fd).value());
  }
  for (const ClassInput& c : in.classes) {
    ScopedSpan span(tracer, "pattern.parse", -1);
    auto parsed = rtp::pattern::ParsePattern(e->alphabet.get(), c.text);
    if (!parsed.ok()) return false;
    auto cls = rtp::update::UpdateClass::FromParsed(std::move(parsed).value());
    if (!cls.ok()) return false;
    e->classes.push_back(std::move(cls).value());
  }
  std::vector<const rtp::fd::FunctionalDependency*> fd_ptrs;
  std::vector<const rtp::update::UpdateClass*> class_ptrs;
  for (const auto& f : e->fds) fd_ptrs.push_back(&f);
  for (const auto& c : e->classes) class_ptrs.push_back(&c);
  rtp::independence::MatrixOptions options;
  options.profiles = profiles;
  ScopedSpan span(tracer, "independence.matrix", -1);
  auto matrix = rtp::independence::ComputeIndependenceMatrix(
      fd_ptrs, class_ptrs, &*e->schema, e->alphabet.get(), options);
  if (!matrix.ok()) return false;
  e->matrix = std::move(matrix).value();
  return true;
}

NodeId ChildLabeled(const rtp::xml::Document& doc, NodeId parent,
                    const std::string& label, int64_t nth) {
  for (NodeId c = doc.first_child(parent); c != rtp::xml::kInvalidNode;
       c = doc.next_sibling(c)) {
    if (doc.label_name(c) == label && nth-- == 0) return c;
  }
  return rtp::xml::kInvalidNode;
}

// The document node of every update target, found by walking the tree.
std::vector<std::vector<NodeId>> ResolveTargets(const MaintInputs& in,
                                                const rtp::xml::Document& doc) {
  NodeId session = ChildLabeled(doc, doc.root(), "session", 0);
  std::vector<NodeId> candidates;
  for (NodeId c = doc.first_child(session); c != rtp::xml::kInvalidNode;
       c = doc.next_sibling(c)) {
    candidates.push_back(c);
  }
  std::vector<std::vector<NodeId>> out;
  for (const ClassInput& cls : in.classes) {
    std::vector<NodeId> nodes;
    for (const auto& [cand, child] : cls.targets) {
      NodeId parent = candidates[static_cast<size_t>(cand)];
      int64_t nth = 0;
      if (cls.name == "ranks") {
        parent = ChildLabeled(doc, parent, "exam", child);
      } else if (cls.name == "tbp") {
        parent = ChildLabeled(doc, parent, "toBePassed", 0);
        nth = child;
      }
      nodes.push_back(ChildLabeled(doc, parent, cls.label, nth));
    }
    out.push_back(std::move(nodes));
  }
  return out;
}

double SelfCpuUs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_utime.tv_sec * 1e6 + usage.ru_utime.tv_usec +
         usage.ru_stime.tv_sec * 1e6 + usage.ru_stime.tv_usec;
}

double PhaseNs(const rtp::obs::QueryProfile& p, const std::string& name) {
  double ns = 0;
  for (const auto& phase : p.phases) {
    if (phase.name == name) ns += static_cast<double>(phase.dur_ns);
  }
  return ns;
}

}  // namespace

int RunFdMaintenance(const Options& o) {
  const MaintInputs in = LoadInputs(ReadInputs(o));
  // This process is the working process: its peak RSS counts from here.
  ResetPeakRss();
  const bool fixed = o.fixed_ops > 0;
  int64_t failed = 0;

  // Cold starts; the last one's engine runs the window.
  std::vector<double> setup_s;
  std::unique_ptr<Engine> owned;
  Tracer setup_tracer;
  std::vector<rtp::obs::QueryProfile> cell_profiles;
  const int reps = fixed ? 1 : kSetupReps;
  for (int rep = 0; rep < reps; ++rep) {
    owned.reset();
    owned = std::make_unique<Engine>();
    bool last = rep == reps - 1;
    int64_t start = NowNs();
    bool ok = Setup(in, owned.get(), last && o.trace ? &setup_tracer : nullptr,
                    last && o.trace ? &cell_profiles : nullptr);
    setup_s.push_back((NowNs() - start) / 1e9);
    if (!ok) {
      std::fprintf(stderr, "perfbench: fd_maintenance setup failed\n");
      return 1;
    }
  }
  Engine& engine = *owned;
  // The matrix must match the documented one: only fd1 x ranks, fd3 x
  // levels and fd5 x fjyears need re-checks.
  std::vector<std::vector<size_t>> recheck(in.classes.size());
  for (size_t c = 0; c < in.classes.size(); ++c) {
    for (size_t f = 0; f < in.fds.size(); ++f) {
      const auto& cell = engine.matrix.at(f, c);
      if (!cell.status.ok() || cell.independent != in.independent[f][c]) {
        std::fprintf(stderr, "perfbench: matrix cell %s x %s is %s\n",
                     in.fds[f].name.c_str(), in.classes[c].name.c_str(),
                     cell.independent ? "independent" : "not independent");
        ++failed;
      }
      if (!cell.independent) recheck[c].push_back(f);
    }
  }
  if (static_cast<int64_t>(engine.doc->LiveNodeCount()) != in.nodes) {
    std::fprintf(stderr, "perfbench: document has %zu nodes, expected %lld\n",
                 engine.doc->LiveNodeCount(), static_cast<long long>(in.nodes));
    ++failed;
  }

  // Operation inputs, prepared before the clock: the target nodes and one
  // operation per distinct update.
  std::vector<std::vector<NodeId>> targets = ResolveTargets(in, *engine.doc);
  std::vector<rtp::update::UpdateOperation> operations;
  for (const Update& u : in.updates) {
    if (u.structural) {
      const std::string& label = in.classes[u.cls].label;
      auto replacement = rtp::xml::ParseXml(
          engine.alphabet.get(),
          "<" + label + ">" + u.value + "</" + label + ">");
      if (!replacement.ok()) return 1;
      auto doc = std::make_shared<const rtp::xml::Document>(
          std::move(replacement).value());
      NodeId root = doc->first_child(doc->root());
      operations.push_back(rtp::update::ReplaceSubtree{std::move(doc), root});
    } else {
      std::string value = u.value;
      operations.push_back(rtp::update::TransformValues{
          [value](std::string_view) { return value; }});
    }
  }
  // Full re-checks: a violated FD is still enumerated to the end, so every
  // re-check costs the same whatever its verdict, and reports the mapping
  // and group counts.
  rtp::fd::CheckOptions check_options;
  check_options.stop_at_first_violation = false;
  // Shadow incremental indexes (traced run): one per FD that gets
  // re-checked, revalidated after each update that re-checks it.
  std::map<size_t, rtp::fd::FdIndex> shadow;
  if (o.trace) {
    for (const auto& fds : recheck) {
      for (size_t f : fds) {
        if (!shadow.count(f)) {
          shadow.emplace(f,
                         rtp::fd::FdIndex::Build(engine.fds[f], *engine.doc));
        }
      }
    }
  }

  Tracer tracer;
  EndToEnd run;
  run.setup_s = setup_s;
  int64_t attempted = 0, ops_by_mode[2] = {0, 0};
  int64_t rechecks = 0, skipped = 0, structural = 0, mappings = 0;
  int64_t traced_ops = 0, shadow_ns = 0, index_builds = 0;
  uint64_t digest = kFnvBasis;
  std::map<std::string, int64_t> op_counts;
  // Traced run only: the last snapshot seen, to tell rebuilds from hits.
  std::shared_ptr<const rtp::xml::DocIndex> last_index =
      o.trace ? engine.doc->Snapshot() : nullptr;
  rtp::xml::Document& doc = *engine.doc;

  // The host probe of a measured run (see QuietSlices).
  std::optional<HostProbe> probe;
  if (!o.trace && !fixed) probe.emplace();
  const int64_t window_start = NowNs();
  const int64_t deadline = window_start + static_cast<int64_t>(o.seconds * 1e9);
  // CPU samples at the first op end of each second of the window.
  run.cpu_samples = {{window_start, SelfCpuUs()}};
  int64_t next_sample = window_start + 1'000'000'000;
  int64_t window_end = window_start;
  for (int64_t i = 0;; ++i) {
    int64_t start = NowNs();
    if (fixed ? i >= o.fixed_ops : start >= deadline) break;
    const MaintOp& op = in.ops[static_cast<size_t>(i) % in.ops.size()];
    const Update& update = in.updates[op.update];
    const int mode = o.trace && InTracedBlock(window_start, start) ? 1 : 0;
    Tracer* tr = mode == 1 ? &tracer : nullptr;
    const int64_t id = i;
    bool ok = true;
    std::vector<NodeId> updated_roots;
    {
      ScopedSpan op_span(tr, "maint.op", id);
      NodeId& node = targets[update.cls][op.target];
      {
        ScopedSpan span(tr, "update.apply", id);
        auto stats = rtp::update::ApplyOperationAt(&doc, {node},
                                                   operations[op.update]);
        ok = stats.ok() && stats->nodes_updated == 1;
        if (ok) updated_roots = std::move(stats->updated_roots);
      }
      if (ok && update.structural) node = updated_roots[0];
      std::shared_ptr<const rtp::xml::DocIndex> index;
      if (tr != nullptr && !recheck[update.cls].empty()) {
        ScopedSpan span(tr, "xml.index", id);
        index = doc.Snapshot();
        if (index == last_index) {
          tr->mutable_spans()[span.index()].name = "xml.snapshot_hit";
        }
      }
      if (index != nullptr && index != last_index) {
        last_index = index;
        ++index_builds;
      }
      for (size_t f : recheck[update.cls]) {
        rtp::fd::CheckResult result;
        if (tr != nullptr) {
          ScopedSpan span(tr, "fd.check", id);
          rtp::obs::QueryProfile profile;
          rtp::fd::CheckOptions options = check_options;
          options.profile = &profile;
          int64_t base = NowNs();
          result = rtp::fd::CheckFd(engine.fds[f], *index, options);
          tr->AddPhases(profile, span.index(), base);
        } else {
          result = rtp::fd::CheckFd(engine.fds[f], doc, check_options);
        }
        const FdInput& want = in.fds[f];
        ok = ok && result.status.ok() && result.satisfied == op.satisfied &&
             static_cast<int64_t>(result.num_mappings) == want.mappings &&
             static_cast<int64_t>(result.num_groups) == want.groups;
        mappings += static_cast<int64_t>(result.num_mappings);
        if (fixed) {
          digest = Fnv(Fnv(Fnv(digest, int64_t{result.satisfied}),
                           static_cast<int64_t>(result.num_mappings)),
                       static_cast<int64_t>(result.num_groups));
        }
      }
    }
    int64_t end = NowNs();
    if (tr != nullptr) {
      // The incremental alternative, timed outside the op.
      for (size_t f : recheck[update.cls]) {
        ScopedSpan span(tr, "fd.index_revalidate", id);
        bool verdict = shadow.at(f).Revalidate(doc, updated_roots);
        ok = ok && verdict == op.satisfied;
      }
      shadow_ns += NowNs() - end;
      ++traced_ops;
    }
    run.latency_ns.push_back(end - start);
    run.op_end_ns.push_back(end);
    if (end >= next_sample && end <= deadline) {
      run.cpu_samples.emplace_back(end, SelfCpuUs());
      next_sample += 1'000'000'000;
    }
    ++attempted;
    ++ops_by_mode[mode];
    if (!ok) {
      if (failed < 5) {
        std::fprintf(stderr,
                     "perfbench: wrong answer after update %lld (%s)\n",
                     static_cast<long long>(i),
                     in.classes[update.cls].name.c_str());
      }
      ++failed;
    }
    rechecks += static_cast<int64_t>(recheck[update.cls].size());
    skipped +=
        static_cast<int64_t>(in.fds.size() - recheck[update.cls].size());
    structural += update.structural ? 1 : 0;
    if (fixed) {
      ++op_counts[in.classes[update.cls].name +
                  (update.structural ? ":subtree=" : ":value=") +
                  update.value];
      digest = Fnv(digest, int64_t{op.satisfied});
    }
    window_end = end;
  }
  if (probe.has_value()) run.host = probe->Stop();
  if (fixed) {
    PrintSelftest(attempted, failed, op_counts, digest);
    return failed == 0 ? 0 : 1;
  }

  Report report;
  report.Note("workload fd_maintenance, seed " + std::to_string(o.seed) +
              ": in process, 1 thread, " + std::to_string(in.nodes) +
              " nodes, " + std::to_string(in.fds.size()) + " FDs x " +
              std::to_string(in.classes.size()) + " update classes");
  if (!o.trace) {
    run.attempted = attempted;
    run.failed = std::min(failed, attempted);
    run.peak_rss_mb = ProcessPeakRssMb(getpid());
    report.Note(std::to_string(rechecks) + " re-checks run, " +
                std::to_string(skipped) + " skipped by the criterion");
    AddEndToEndMetrics(run, &report);
    report.Print(failed == 0, attempted, failed);
    return failed == 0 ? 0 : 1;
  }

  std::map<std::string, LayerStats> layers, setup_layers;
  Aggregate(tracer.spans(), &layers);
  Aggregate(setup_tracer.spans(), &setup_layers);
  const double cells = std::max<size_t>(1, cell_profiles.size());
  double criterion_ns = 0, compile_ns = 0, product_ns = 0, emptiness_ns = 0,
         product_states = 0;
  for (const auto& p : cell_profiles) {
    criterion_ns += static_cast<double>(p.wall_ns);
    compile_ns += PhaseNs(p, "independence.compile_patterns");
    product_ns += PhaseNs(p, "independence.build_product");
    emptiness_ns += PhaseNs(p, "independence.emptiness");
  }
  for (const auto& cell : engine.matrix.entries) {
    product_states += static_cast<double>(cell.product_size);
  }
  const int64_t n_cells = static_cast<int64_t>(cell_profiles.size());
  // xml.index: the build at setup plus every rebuild after a structural
  // update (snapshot hits are spans of their own).
  LayerValue index = MeanSpanUs(layers, "xml.index");
  LayerValue setup_index = MeanSpanUs(setup_layers, "xml.index");
  double index_us =
      (index.value * index.samples + setup_index.value * setup_index.samples) /
      std::max<int64_t>(1, index.samples + setup_index.samples);
  std::map<std::string, LayerValue> values = {
      {"pattern.parse_us", MeanSpanUs(setup_layers, "pattern.parse")},
      {"pattern.tables_us", MeanSpanUs(layers, "pattern.build_tables")},
      {"pattern.mappings_per_op",
       {static_cast<double>(mappings) / std::max<int64_t>(1, attempted),
        attempted}},
      {"xml.parse_us", MeanSpanUs(setup_layers, "xml.parse")},
      {"xml.index_us", {index_us, index.samples + setup_index.samples}},
      {"fd.check_us", MeanSpanUs(layers, "fd.check")},
      {"fd.group_us", MeanSpanUs(layers, "fd.group_and_compare")},
      {"fd.index_revalidate_us", MeanSpanUs(layers, "fd.index_revalidate")},
      {"update.apply_us", MeanSpanUs(layers, "update.apply")},
      {"update.structural_share",
       {static_cast<double>(structural) / std::max<int64_t>(1, attempted),
        attempted}},
      {"independence.criterion_us", {criterion_ns / 1e3 / cells, n_cells}},
      {"automata.compile_us", {compile_ns / 1e3 / cells, n_cells}},
      {"automata.product_us", {product_ns / 1e3 / cells, n_cells}},
      {"automata.emptiness_us", {emptiness_ns / 1e3 / cells, n_cells}},
      {"automata.product_states", {product_states / cells, n_cells}},
      {"independence.skip_ratio",
       {static_cast<double>(skipped) / std::max<int64_t>(1, rechecks + skipped),
        rechecks + skipped}},
      {"trace.overhead",
       {TracingOverhead(window_start, window_end, ops_by_mode[0],
                        ops_by_mode[1], shadow_ns),
        attempted}},
  };
  int64_t op_ns = 0;
  auto op_layer = layers.find("maint.op");
  if (op_layer != layers.end()) op_ns = op_layer->second.total_ns;
  report.Note(std::to_string(attempted) + " updates, " +
              std::to_string(index_builds) + " index rebuilds, " +
              std::to_string(rechecks) + " re-checks, " +
              std::to_string(skipped) + " skipped by the criterion");
  PrintLayerTable("set-up (last cold start)", setup_layers, 0);
  PrintLayerTable("traced ops (" + std::to_string(traced_ops) +
                      "); share = self time / summed maint.op time; "
                      "fd.index_revalidate runs outside the op",
                  layers, op_ns);
  std::ofstream(o.work + "/spans-fd_maintenance.tsv", std::ios::trunc);
  WriteSpans(o.work + "/spans-fd_maintenance.tsv", setup_tracer.spans());
  WriteSpans(o.work + "/spans-fd_maintenance.tsv", tracer.spans());
  AddLayerMetrics(values, "not on this workload's path (serve workloads only)",
                  &report);
  report.Print(failed == 0, attempted, failed);
  return failed == 0 ? 0 : 1;
}

}  // namespace perfbench
