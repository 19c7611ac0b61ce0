#include "workload/runner.h"

#include <chrono>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "serve/client.h"
#include "workload/generator.h"

namespace rtp::workload {
namespace {

using Clock = std::chrono::steady_clock;

// One worker: owns a connection, an Rng, its own generator instances (so
// any instance-local cursor replays deterministically) and local stats.
// Op errors are recorded and the run continues: a load harness must
// survive a misbehaving server.
class Worker {
 public:
  Worker(const WorkloadSpec& spec, uint64_t thread_seed,
         const serve::ClientOptions& client_options, chaos::FaultPlan plan)
      : spec_(spec),
        rng_(thread_seed),
        client_options_(client_options),
        plan_(std::move(plan)) {}

  // Creates the generator instances and connects to the daemon.
  Status Start(const std::string& socket_path) {
    for (const GeneratorSpec& gen : spec_.generators) {
      RTP_ASSIGN_OR_RETURN(std::unique_ptr<Generator> instance,
                           CreateGenerator(gen));
      generators_.push_back(std::move(instance));
    }
    auto client = serve::Client::Connect(socket_path, client_options_);
    if (!client.ok()) return client.status();
    client_.emplace(std::move(client).value());
    return Status::OK();
  }

  // Setup phase: each setup op once, in order.
  void RunSetup() {
    for (const WorkloadOp& op : spec_.setup) RunOp(op);
  }

  // Measured phase: `count` weighted draws from the mix, or as many as
  // fit in `duration_s`.
  void RunMix() {
    uint64_t total_weight = 0;
    for (const WorkloadOp& op : spec_.mix) total_weight += op.weight;
    auto pick = [&]() -> const WorkloadOp& {
      uint64_t draw = rng_.Below(total_weight);
      for (const WorkloadOp& op : spec_.mix) {
        if (draw < op.weight) return op;
        draw -= op.weight;
      }
      return spec_.mix.back();
    };
    if (spec_.count > 0) {
      for (uint64_t i = 0; i < spec_.count; ++i) RunOp(pick());
      return;
    }
    auto until = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(
                                        spec_.duration_s));
    while (Clock::now() < until) RunOp(pick());
  }

  const WorkloadStats& stats() const { return stats_; }
  uint64_t ops() const { return ops_; }
  uint64_t errors() const { return errors_; }
  uint64_t transport_errors() const { return transport_errors_; }
  uint64_t faults_injected() const { return plan_.injected(); }
  const std::string& first_error_op() const { return first_error_op_; }
  const Status& first_error() const { return first_error_; }

 private:
  void RunOp(const WorkloadOp& op) {
    std::string payload = op.generator != kNoGenerator
                              ? generators_[op.generator]->Next(&rng_)
                              : op.text;
    serve::CallOptions call_options;
    call_options.budget = op.budget;
    // One fault draw per op whether or not one fires, so the injection
    // sequence depends only on (chaos.seed, thread index, op index).
    call_options.fault = plan_.Draw();
    const std::string& tenant = spec_.tenant;
    auto t0 = Clock::now();
    Status status;
    switch (op.kind) {
      case OpKind::kEval:
        status = client_->Eval(tenant, op.doc, payload, call_options).status();
        break;
      case OpKind::kCheckFd:
        status =
            client_->CheckFd(tenant, op.doc, payload, call_options).status();
        break;
      case OpKind::kLoad:
        status = client_->Load(tenant, op.doc, payload, call_options);
        break;
      case OpKind::kMatrix:
        status = client_->Matrix(tenant, op.fd_texts, op.class_texts,
                                 op.schema_text, call_options)
                     .status();
        break;
      case OpKind::kStats:
        status = client_->Stats().status();
        break;
    }
    double latency_us =
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
    OpStats& cell = stats_.Op(op.name);
    cell.Record(latency_us, status.ok());
    if (!call_options.fault.none()) {
      ++cell.faults[static_cast<size_t>(call_options.fault.kind)];
    }
    ++ops_;
    if (status.ok()) return;
    ++errors_;
    if (status.code() == StatusCode::kUnavailable ||
        status.code() == StatusCode::kTransportError) {
      ++transport_errors_;
    }
    if (first_error_op_.empty()) {
      first_error_op_ = op.name;
      first_error_ = status;
    }
  }

  const WorkloadSpec& spec_;
  Rng rng_;
  serve::ClientOptions client_options_;
  chaos::FaultPlan plan_;  // empty (never fires) without a chaos block
  std::vector<std::unique_ptr<Generator>> generators_;
  std::optional<serve::Client> client_;
  WorkloadStats stats_;
  uint64_t ops_ = 0;
  uint64_t errors_ = 0;
  uint64_t transport_errors_ = 0;
  std::string first_error_op_;
  Status first_error_;
};

// Folds one worker's stats and totals into `result`, keeping the first
// error seen.
void Collect(const Worker& worker, RunResult* result) {
  result->stats.Merge(worker.stats());
  result->ops += worker.ops();
  result->errors += worker.errors();
  result->transport_errors += worker.transport_errors();
  result->faults_injected += worker.faults_injected();
  if (result->first_error_op.empty()) {
    result->first_error_op = worker.first_error_op();
    result->first_error = worker.first_error();
  }
}

}  // namespace

StatusOr<RunResult> RunWorkload(const WorkloadSpec& spec,
                                const RunnerOptions& options) {
  if (options.socket_path.empty()) {
    return InvalidArgumentError("runner needs a socket path");
  }
  if (options.threads < 1 || options.threads > 1024) {
    return InvalidArgumentError("runner threads must be in [1, 1024]");
  }
  if (spec.mix.empty()) {
    return InvalidArgumentError("workload spec has no mix ops");
  }

  auto start = Clock::now();
  RunResult result;

  // Setup phase: one dedicated connection, the root seed itself, no
  // chaos — deterministic regardless of thread count.
  if (!spec.setup.empty()) {
    Worker setup_worker(spec, options.seed, serve::ClientOptions{},
                        chaos::FaultPlan());
    RTP_RETURN_IF_ERROR(setup_worker.Start(options.socket_path));
    setup_worker.RunSetup();
    Collect(setup_worker, &result);
  }

  // Client configuration: plain blocking clients for clean runs; when the
  // spec carries a chaos block the measured-phase clients get deadlines
  // and retries so every injected fault resolves into either a recovered
  // call or a structured error — never a hang.
  serve::ClientOptions measured_client;
  if (spec.chaos.enabled()) {
    measured_client.call_timeout_ms = spec.chaos_call_timeout_ms;
    measured_client.retry.max_attempts = spec.chaos_max_attempts;
  }

  // Measured phase: thread seeds derive from the root seed in
  // thread-index order. Every worker connects before any of them starts,
  // so a connect failure aborts the run instead of skewing it.
  Rng seeder(options.seed);
  std::vector<std::unique_ptr<Worker>> workers;
  workers.reserve(static_cast<size_t>(options.threads));
  for (int i = 0; i < options.threads; ++i) {
    chaos::FaultPlan plan;
    if (spec.chaos.enabled()) {
      plan = chaos::FaultPlan(spec.chaos, static_cast<uint64_t>(i));
    }
    workers.push_back(std::make_unique<Worker>(spec, seeder.Next(),
                                               measured_client,
                                               std::move(plan)));
    RTP_RETURN_IF_ERROR(workers.back()->Start(options.socket_path));
  }

  std::vector<std::thread> threads;
  threads.reserve(workers.size());
  for (const std::unique_ptr<Worker>& worker : workers) {
    threads.emplace_back([&worker] { worker->RunMix(); });
  }
  for (std::thread& t : threads) t.join();

  // Merge in thread-index order: deterministic merged stats.
  for (const std::unique_ptr<Worker>& worker : workers) {
    Collect(*worker, &result);
  }
  result.elapsed_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  return result;
}

}  // namespace rtp::workload
