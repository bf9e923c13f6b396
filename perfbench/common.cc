#include <algorithm>
#include <cmath>

#include "autograd/ops.h"
#include "autograd/tape.h"
#include "bench.h"
#include "common/json_writer.h"
#include "common/rng.h"
#include "la/backend.h"
#include "la/matrix.h"
#include "nn/trainer.h"

namespace ppfr::perfbench {

double NowSeconds() {
  static const std::chrono::steady_clock::time_point origin =
      std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - origin)
      .count();
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

int Tracer::Begin(const std::string& name) {
  spans_.push_back({name, NowSeconds(), 0.0, open_});
  open_ = static_cast<int>(spans_.size()) - 1;
  return open_;
}

void Tracer::End(int id) {
  spans_[id].end = NowSeconds();
  open_ = spans_[id].parent;
}

double Tracer::ChildSeconds(int id) const {
  double covered = 0.0;
  for (size_t i = id + 1; i < spans_.size(); ++i) {
    if (spans_[i].parent == id) covered += spans_[i].end - spans_[i].start;
  }
  return covered;
}

double Tracer::SelfSeconds(const std::string& name) const {
  double total = 0.0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name != name) continue;
    total += spans_[i].end - spans_[i].start - ChildSeconds(static_cast<int>(i));
  }
  return total;
}

double Tracer::TotalSeconds(const std::string& name) const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.name == name) total += span.end - span.start;
  }
  return total;
}

int Tracer::LastRoot(const std::string& root) const {
  for (int i = static_cast<int>(spans_.size()) - 1; i >= 0; --i) {
    if (spans_[i].parent == -1 && spans_[i].name == root) return i;
  }
  return -1;
}

double Tracer::RootSeconds(const std::string& root) const {
  const int id = LastRoot(root);
  return id < 0 ? 0.0 : spans_[id].end - spans_[id].start;
}

double Tracer::RootChildSeconds(const std::string& root) const {
  const int id = LastRoot(root);
  return id < 0 ? 0.0 : ChildSeconds(id);
}

std::map<std::string, double> Tracer::LayerSelfSeconds(const std::string& root) const {
  std::map<std::string, double> out;
  const int id = LastRoot(root);
  if (id < 0) return out;
  // Spans are stored in start order and a child starts after its parent, so
  // one forward pass marks the subtree.
  std::vector<bool> inside(spans_.size(), false);
  inside[id] = true;
  for (size_t i = id + 1; i < spans_.size(); ++i) {
    const int parent = spans_[i].parent;
    if (parent >= 0 && inside[parent]) inside[i] = true;
  }
  for (size_t i = id + 1; i < spans_.size(); ++i) {
    if (!inside[i]) continue;
    const std::string& name = spans_[i].name;
    const std::string layer = name.substr(0, name.find('.'));
    out[layer] += spans_[i].end - spans_[i].start - ChildSeconds(static_cast<int>(i));
  }
  return out;
}

std::string Tracer::ToJson() const {
  JsonWriter json;
  json.BeginArray();
  for (const Span& span : spans_) {
    json.BeginObject();
    json.Key("name").String(span.name);
    json.Key("start").Number(span.start);
    json.Key("end").Number(span.end);
    json.Key("parent").Int(span.parent);
    json.EndObject();
  }
  json.EndArray();
  return json.ToString();
}

void Report::CountUnit(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    check_failures.push_back("failed unit: " + what);
  }
}

void Report::Check(bool ok, const std::string& what) {
  if (!ok) check_failures.push_back(what);
}

std::string KindTag(nn::ModelKind kind) {
  switch (kind) {
    case nn::ModelKind::kGcn:
      return "gcn";
    case nn::ModelKind::kGat:
      return "gat";
    case nn::ModelKind::kGraphSage:
      return "sage";
  }
  return "unknown";
}

influence::InfluenceConfig FixedWorkSolves(influence::InfluenceConfig config,
                                           int iterations) {
  config.cg.tolerance = 0.0;
  config.cg.max_iterations = iterations;
  return config;
}

bool AllFinite(const std::vector<double>& values) {
  return std::all_of(values.begin(), values.end(),
                     [](double v) { return std::isfinite(v); });
}

namespace {

// Median seconds of `reps` calls of fn after one warm-up call.
template <typename Fn>
double MedianSeconds(int reps, const Fn& fn) {
  fn();
  std::vector<double> samples;
  for (int r = 0; r < reps; ++r) {
    const double start = NowSeconds();
    fn();
    samples.push_back(NowSeconds() - start);
  }
  return Median(samples);
}

la::Matrix FilledMatrix(int rows, int cols, uint64_t seed) {
  Rng rng(seed);
  la::Matrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) m.data()[i] = rng.Normal();
  return m;
}

}  // namespace

void ProbeGemm(int rows, int inner, int cols, Tracer* tracer, Report* report) {
  const la::Matrix a = FilledMatrix(rows, inner, 11);
  const la::Matrix b = FilledMatrix(inner, cols, 12);
  la::Matrix out(rows, cols);
  const double flops = 2.0 * rows * static_cast<double>(inner) * cols;
  const std::unique_ptr<la::Backend> all_cores =
      la::MakeBackend(la::ActiveBackendKind(), 0);
  const std::unique_ptr<la::Backend> single =
      la::MakeBackend(la::ActiveBackendKind(), 1);
  double seconds = 0.0;
  double seconds_1t = 0.0;
  {
    ScopedSpan span(tracer, "la.gemm");
    seconds = MedianSeconds(9, [&] { all_cores->Gemm(a, b, &out); });
  }
  {
    ScopedSpan span(tracer, "la.gemm_1t");
    seconds_1t = MedianSeconds(9, [&] { single->Gemm(a, b, &out); });
  }
  report->metrics["la.gemm_gflops"] = flops / seconds * 1e-9;
  report->metrics["la.gemm_gflops_1t"] = flops / seconds_1t * 1e-9;
}

double ProbeSpmmMs(const nn::GraphContext& ctx, Tracer* tracer) {
  ScopedSpan span(tracer, "la.spmm");
  la::Matrix out(ctx.num_nodes(), ctx.feature_dim());
  return 1e3 * MedianSeconds(9, [&] {
           out.Zero();
           la::ActiveBackend().SpmmAccum(ctx.gcn_adj->mat, ctx.features, 1.0, &out);
         });
}

void ProbeModelKinds(const nn::GraphContext& ctx, const std::vector<int>& train_nodes,
                     const std::vector<int>& labels, int num_classes, uint64_t seed,
                     Tracer* tracer, Report* report) {
  constexpr int kReps = 5;
  constexpr int kEpochs = 10;
  std::vector<int> train_labels;
  for (int v : train_nodes) train_labels.push_back(labels[v]);
  const std::vector<double> weights(train_nodes.size(), 1.0);
  for (nn::ModelKind kind :
       {nn::ModelKind::kGcn, nn::ModelKind::kGat, nn::ModelKind::kGraphSage}) {
    const std::string tag = KindTag(kind);
    const std::unique_ptr<nn::GnnModel> model =
        nn::MakeModel(kind, ctx.feature_dim(), num_classes, seed);
    // The trainer's loss graph: forward, log-softmax, weighted NLL.
    Rng rng(seed);
    const auto loss_on = [&](ag::Tape& tape) {
      nn::ForwardOptions options;
      if (model->UsesNeighborSampling()) {
        options.sage_aggregator = ctx.SampledMeanAdj(5, &rng);
      }
      const ag::Var logits = model->Forward(tape, ctx, options);
      return ag::WeightedNll(ag::LogSoftmaxRows(logits), train_nodes, train_labels,
                             weights, static_cast<double>(train_nodes.size()));
    };
    std::vector<double> record, replay, backward;
    {
      ScopedSpan span(tracer, "autograd.tape." + tag);
      for (int r = 0; r < kReps; ++r) {
        ag::Tape tape;
        double start = NowSeconds();
        ag::Var loss = loss_on(tape);
        record.push_back(NowSeconds() - start);
        for (ag::Parameter* p : model->Params()) p->ZeroGrad();
        start = NowSeconds();
        tape.Backward(loss);
        backward.push_back(NowSeconds() - start);
        tape.BeginReplay();
        start = NowSeconds();
        loss = loss_on(tape);
        replay.push_back(NowSeconds() - start);
        tape.Backward(loss);
      }
    }
    report->metrics["autograd.record_ms." + tag] = 1e3 * Median(record);
    report->metrics["autograd.replay_ms." + tag] = 1e3 * Median(replay);
    report->metrics["autograd.backward_ms." + tag] = 1e3 * Median(backward);

    nn::TrainConfig config;
    config.epochs = kEpochs;
    config.seed = seed;
    std::vector<double> epoch_ms;
    {
      ScopedSpan span(tracer, "nn.train." + tag);
      for (int r = 0; r < 3; ++r) {
        const std::unique_ptr<nn::GnnModel> fresh =
            nn::MakeModel(kind, ctx.feature_dim(), num_classes, seed);
        const double start = NowSeconds();
        nn::Train(fresh.get(), ctx, train_nodes, labels, config);
        epoch_ms.push_back(1e3 * (NowSeconds() - start) / kEpochs);
      }
    }
    report->metrics["nn.train_epoch_ms." + tag] = Median(epoch_ms);
  }
}

}  // namespace ppfr::perfbench
