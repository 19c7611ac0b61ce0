#include "workload/runner.h"

#include <chrono>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "serve/client.h"
#include "workload/generator.h"

namespace rtp::workload {
namespace {

using Clock = std::chrono::steady_clock;

// Per-thread instantiation of one spec's generators, plus the sub-scopes
// of its nested workload nodes (indexed by node, non-null only for
// kWorkload nodes). Generator instances are per-scope-per-thread so any
// instance-local cursor state replays deterministically.
struct Scope {
  const WorkloadSpec* spec = nullptr;
  // Stats key prefix; "" at top level, "<workload-node>/" when nested.
  std::string prefix;
  std::vector<std::unique_ptr<Generator>> generators;
  std::vector<std::unique_ptr<Scope>> subs;
};

StatusOr<std::unique_ptr<Scope>> BuildScope(const WorkloadSpec& spec,
                                            const std::string& prefix) {
  auto scope = std::make_unique<Scope>();
  scope->spec = &spec;
  scope->prefix = prefix;
  scope->generators.reserve(spec.generators.size());
  for (const GeneratorSpec& gen : spec.generators) {
    RTP_ASSIGN_OR_RETURN(std::unique_ptr<Generator> instance,
                         CreateGenerator(gen));
    scope->generators.push_back(std::move(instance));
  }
  scope->subs.resize(spec.nodes.size());
  for (size_t i = 0; i < spec.nodes.size(); ++i) {
    if (spec.nodes[i].kind == NodeKind::kWorkload) {
      RTP_ASSIGN_OR_RETURN(
          scope->subs[i],
          BuildScope(*spec.nodes[i].sub,
                     prefix + spec.nodes[i].name + "/"));
    }
  }
  return scope;
}

// One worker: owns a connection, an Rng, a Scope tree, and local stats.
// Op errors are recorded and the walk continues (a load harness must
// survive a misbehaving server); only the duration cap unwinds the walk,
// via the `stopped` flag.
class Worker {
 public:
  Worker(const RunnerOptions& options, uint64_t thread_seed, int thread_index,
         Clock::time_point deadline,
         const serve::ClientOptions& client_options,
         const chaos::ChaosConfig& chaos_config)
      : options_(options),
        rng_(thread_seed),
        deadline_(deadline),
        client_options_(client_options) {
    if (chaos_config.enabled()) {
      plan_ = chaos::FaultPlan(chaos_config,
                               static_cast<uint64_t>(thread_index));
    }
  }

  Status Connect() {
    auto client = serve::Client::Connect(options_.socket_path,
                                         client_options_);
    if (!client.ok()) return client.status();
    client_.emplace(std::move(client).value());
    return Status::OK();
  }

  void Run(Scope& scope, size_t root) { Exec(scope, root); }

  // Setup phase: executes `nodes` once, in order.
  void RunSetup(Scope& scope, const std::vector<size_t>& nodes) {
    for (size_t node : nodes) Exec(scope, node);
  }

  WorkloadStats& stats() { return stats_; }
  uint64_t ops() const { return ops_; }
  uint64_t errors() const { return errors_; }
  uint64_t transport_errors() const { return transport_errors_; }
  uint64_t faults_injected() const { return plan_.injected(); }
  const std::string& first_error_node() const { return first_error_node_; }
  const Status& first_error() const { return first_error_; }
  bool stopped() const { return stopped_; }

 private:
  bool CheckDeadline() {
    if (stopped_) return true;
    if (deadline_ != Clock::time_point() && Clock::now() >= deadline_) {
      stopped_ = true;
    }
    return stopped_;
  }

  void Exec(Scope& scope, size_t index) {
    if (CheckDeadline()) return;
    const WorkloadNode& node = scope.spec->node(index);
    if (node.IsOp()) {
      ExecOp(scope, node);
      return;
    }
    switch (node.kind) {
      case NodeKind::kSequence:
      case NodeKind::kDoAll:
        // In one worker's walk a join barrier degenerates to "run every
        // child, then continue" — the node kinds stay distinct so specs
        // keep their genny shape and per-node stats group naturally.
        for (size_t child : node.children) {
          Exec(scope, child);
          if (stopped_) return;
        }
        break;
      case NodeKind::kRandomChoice: {
        uint64_t total = 0;
        for (uint64_t w : node.weights) total += w;
        uint64_t draw = rng_.Below(total);
        for (size_t i = 0; i < node.children.size(); ++i) {
          if (draw < node.weights[i]) {
            Exec(scope, node.children[i]);
            break;
          }
          draw -= node.weights[i];
        }
        break;
      }
      case NodeKind::kLoop: {
        if (node.count > 0) {
          for (uint64_t i = 0; i < node.count; ++i) {
            Exec(scope, node.body);
            if (stopped_) return;
          }
        } else {
          auto until = Clock::now() + std::chrono::duration_cast<
                                          Clock::duration>(
                                          std::chrono::duration<double>(
                                              node.duration_s));
          while (Clock::now() < until) {
            Exec(scope, node.body);
            if (stopped_) return;
          }
        }
        break;
      }
      case NodeKind::kWorkload: {
        Scope& sub = *scope.subs[index];
        Exec(sub, sub.spec->root);
        break;
      }
      default:
        break;
    }
  }

  void ExecOp(Scope& scope, const WorkloadNode& node) {
    serve::CallOptions call_options;
    call_options.budget = node.budget;
    // One fault draw per op whether or not one fires, so the injection
    // sequence depends only on (chaos.seed, thread index, op index).
    call_options.fault = plan_.Draw();
    const std::string& tenant = scope.spec->tenant;
    std::string payload = node.generator != kNoNode
                              ? scope.generators[node.generator]->Next(&rng_)
                              : node.text;
    auto t0 = Clock::now();
    Status status;
    switch (node.kind) {
      case NodeKind::kEval:
        status =
            client_->Eval(tenant, node.doc, payload, call_options).status();
        break;
      case NodeKind::kCheckFd:
        status =
            client_->CheckFd(tenant, node.doc, payload, call_options).status();
        break;
      case NodeKind::kLoad:
        status = client_->Load(tenant, node.doc, payload, call_options);
        break;
      case NodeKind::kMatrix:
        status = client_->Matrix(tenant, node.fd_texts, node.class_texts,
                                 node.schema_text, call_options)
                     .status();
        break;
      case NodeKind::kStats:
        status = client_->Stats().status();
        break;
      default:
        break;
    }
    auto t1 = Clock::now();
    double latency_us =
        std::chrono::duration<double, std::micro>(t1 - t0).count();
    NodeStats& cell = stats_.Node(scope.prefix + node.name);
    cell.Record(latency_us, status.ok());
    if (!call_options.fault.none()) {
      ++cell.faults[static_cast<size_t>(call_options.fault.kind)];
    }
    ++ops_;
    if (!status.ok()) {
      ++errors_;
      if (status.code() == StatusCode::kUnavailable ||
          status.code() == StatusCode::kTransportError) {
        ++cell.transport_errors;
        ++transport_errors_;
      }
      if (first_error_node_.empty()) {
        first_error_node_ = scope.prefix + node.name;
        first_error_ = status;
      }
      RTP_OBS_COUNT("workload.op_errors");
    }
    RTP_OBS_COUNT("workload.ops");
    RTP_OBS_HISTOGRAM_RECORD("workload.op_ns",
                             static_cast<uint64_t>(latency_us * 1000.0));
  }

  const RunnerOptions& options_;
  Rng rng_;
  Clock::time_point deadline_;
  serve::ClientOptions client_options_;
  chaos::FaultPlan plan_;  // empty (never fires) without a chaos block
  std::optional<serve::Client> client_;
  WorkloadStats stats_;
  uint64_t ops_ = 0;
  uint64_t errors_ = 0;
  uint64_t transport_errors_ = 0;
  std::string first_error_node_;
  Status first_error_;
  bool stopped_ = false;
};

}  // namespace

StatusOr<RunResult> RunWorkload(const WorkloadSpec& spec,
                                const RunnerOptions& options) {
  if (options.socket_path.empty()) {
    return InvalidArgumentError("runner needs a socket path");
  }
  if (options.threads < 1 || options.threads > 1024) {
    return InvalidArgumentError("runner threads must be in [1, 1024]");
  }
  if (spec.root == kNoNode) {
    return InvalidArgumentError("workload spec has no root node");
  }

  auto start = Clock::now();
  Clock::time_point deadline;
  if (options.duration_s > 0) {
    deadline = start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(options.duration_s));
  }

  // Thread seeds derive from the root seed in thread-index order.
  Rng seeder(options.seed);
  std::vector<uint64_t> seeds;
  seeds.reserve(static_cast<size_t>(options.threads));
  for (int i = 0; i < options.threads; ++i) seeds.push_back(seeder.Next());

  RunResult result;

  // Client configuration: plain blocking clients for clean runs; when the
  // spec carries a chaos block the measured-phase clients get deadlines
  // and retries so every injected fault resolves into either a recovered
  // call or a structured error — never a hang.
  serve::ClientOptions measured_client;
  if (spec.chaos.enabled()) {
    measured_client.call_timeout_ms = spec.chaos_call_timeout_ms;
    measured_client.retry.max_attempts = spec.chaos_max_attempts;
  }

  // Setup phase: one dedicated connection, the root seed itself, no
  // chaos — deterministic regardless of thread count.
  if (!spec.setup.empty()) {
    Worker setup_worker(options, options.seed, /*thread_index=*/0, deadline,
                        serve::ClientOptions{}, chaos::ChaosConfig{});
    RTP_RETURN_IF_ERROR(setup_worker.Connect());
    RTP_ASSIGN_OR_RETURN(std::unique_ptr<Scope> setup_scope,
                         BuildScope(spec, ""));
    setup_worker.RunSetup(*setup_scope, spec.setup);
    result.stats.Merge(setup_worker.stats());
    result.ops += setup_worker.ops();
    result.errors += setup_worker.errors();
    result.transport_errors += setup_worker.transport_errors();
    if (result.first_error_node.empty()) {
      result.first_error_node = setup_worker.first_error_node();
      result.first_error = setup_worker.first_error();
    }
  }

  // Measured phase: connect every worker before any of them starts, so
  // a connect failure aborts the run instead of skewing it.
  std::vector<std::unique_ptr<Worker>> workers;
  std::vector<std::unique_ptr<Scope>> scopes;
  workers.reserve(static_cast<size_t>(options.threads));
  scopes.reserve(static_cast<size_t>(options.threads));
  for (int i = 0; i < options.threads; ++i) {
    workers.push_back(std::make_unique<Worker>(
        options, seeds[static_cast<size_t>(i)], i, deadline, measured_client,
        spec.chaos));
    RTP_RETURN_IF_ERROR(workers.back()->Connect());
    RTP_ASSIGN_OR_RETURN(std::unique_ptr<Scope> scope, BuildScope(spec, ""));
    scopes.push_back(std::move(scope));
  }

  std::vector<std::thread> threads;
  threads.reserve(workers.size());
  for (size_t i = 0; i < workers.size(); ++i) {
    threads.emplace_back(
        [&, i] { workers[i]->Run(*scopes[i], scopes[i]->spec->root); });
  }
  for (std::thread& t : threads) t.join();

  // Merge in thread-index order: deterministic merged stats.
  for (const std::unique_ptr<Worker>& worker : workers) {
    result.stats.Merge(worker->stats());
    result.ops += worker->ops();
    result.errors += worker->errors();
    result.transport_errors += worker->transport_errors();
    result.faults_injected += worker->faults_injected();
    if (result.first_error_node.empty()) {
      result.first_error_node = worker->first_error_node();
      result.first_error = worker->first_error();
    }
    result.truncated = result.truncated || worker->stopped();
  }
  result.elapsed_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  return result;
}

}  // namespace rtp::workload
