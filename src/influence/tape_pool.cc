#include "influence/tape_pool.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace ppfr::influence {

TapePool::TapePool(const Builder& builder, std::vector<ag::Parameter*> params,
                   int num_lanes)
    : builder_(builder), params_(std::move(params)), num_lanes_(num_lanes) {
  PPFR_CHECK_GE(num_lanes, 1);
  // One forward pass, built with the ACTIVE backend: its values are exactly
  // what a plain single-tape forward would produce, and after construction
  // the tape is only ever read (until a Rewarm replays it).
  tape_.set_accumulate_param_grads(false);
  output_ = builder_(tape_);
  PPFR_CHECK(output_.tape == &tape_);
  if (num_lanes > 1) pool_ = std::make_unique<ThreadPool>(num_lanes);
}

void TapePool::Rewarm() {
  tape_.BeginReplay();
  output_ = builder_(tape_);
  PPFR_CHECK(output_.tape == &tape_);
  // Close the replay here: the seeded backwards that follow run on worker
  // threads, which must never race on the tape's replay state.
  tape_.EndReplay();
}

void TapePool::RunLane(int seed_begin, int seed_end, const SeedFn& seed_fn,
                       std::vector<std::vector<double>>* grads) {
  // Worker-private state: a gradient arena for the shared tape, and a
  // single-threaded backend of the active kind so the shared ParallelBackend
  // pool is never entered concurrently.
  const std::unique_ptr<la::Backend> backend =
      la::MakeBackend(la::ActiveBackendKind(), /*num_threads=*/1);
  la::ThreadLocalBackendGuard backend_guard(backend.get());
  ag::GradArena arena(&tape_);
  ag::ArenaScope arena_scope(&arena);
  std::vector<int> rows;
  std::vector<int> cols;
  std::vector<double> values;
  for (int k = seed_begin; k < seed_end; ++k) {
    rows.clear();
    cols.clear();
    values.clear();
    seed_fn(k, &rows, &cols, &values);
    tape_.BackwardWithSparseSeed(output_, rows, cols, values);
    tape_.FlattenLeafGrads(params_, &(*grads)[static_cast<size_t>(k)]);
    tape_.ZeroDirtyNodeGrads();
  }
}

std::vector<std::vector<double>> TapePool::PerSeedGrads(int num_seeds,
                                                        const SeedFn& seed_fn) {
  PPFR_CHECK_GE(num_seeds, 0);
  std::vector<std::vector<double>> grads(static_cast<size_t>(num_seeds));
  if (num_seeds == 0) return grads;
  const int lanes = std::min<int>(num_lanes_, num_seeds);
  if (lanes == 1 || pool_ == nullptr) {
    RunLane(0, num_seeds, seed_fn, &grads);
    return grads;
  }
  // Contiguous, near-even seed ranges; each range is driven by exactly one
  // worker with its own arena, so no backward state is ever shared.
  pool_->ParallelFor(0, lanes, 1, [&](int64_t l0, int64_t l1) {
    for (int64_t l = l0; l < l1; ++l) {
      const int begin = static_cast<int>(l * num_seeds / lanes);
      const int end = static_cast<int>((l + 1) * num_seeds / lanes);
      RunLane(begin, end, seed_fn, &grads);
    }
  });
  return grads;
}

GradLanePool::GradLanePool(const WideLaneFactory& factory, int num_lanes, int width)
    : width_(width) {
  PPFR_CHECK_GE(num_lanes, 1);
  PPFR_CHECK_GE(width, 1);
  lanes_.reserve(static_cast<size_t>(num_lanes));
  for (int l = 0; l < num_lanes; ++l) {
    lanes_.push_back(factory(width));
    PPFR_CHECK_EQ(lanes_.back().width, width);
  }
  if (num_lanes > 1) pool_ = std::make_unique<ThreadPool>(num_lanes);
}

void GradLanePool::RunChunks(int lane, int chunk_begin, int chunk_end,
                             int kernel_threads,
                             const std::vector<std::vector<double>>& points,
                             std::vector<std::vector<double>>* grads) {
  // A sweep often has FEWER chunk workers than cores (e.g. 16 probes at
  // width 8 = 2 chunks), so the threads the workers don't occupy are handed
  // to each worker's private backend. Kernels are bitwise invariant to their
  // thread count, so this moves wall-clock only, never bits.
  const std::unique_ptr<la::Backend> backend =
      la::MakeBackend(la::ActiveBackendKind(), std::max(1, kernel_threads));
  la::ThreadLocalBackendGuard backend_guard(backend.get());
  GradLane& state = lanes_[static_cast<size_t>(lane)];
  const int width = state.width;
  const int n = static_cast<int>(points.size());
  for (int c = chunk_begin; c < chunk_end; ++c) {
    const int p0 = c * width;
    const int count = std::min(width, n - p0);
    PPFR_CHECK_GE(count, 1);
    // Scatter: fused lane l of every WIDE parameter (rows x base_cols·width)
    // takes point p0+l's block, column window [l·base_cols, (l+1)·base_cols).
    // Short final chunks replicate their last point into the pad lanes —
    // lanes are arithmetically independent, so pad results are discarded
    // without ever influencing a real lane's bits.
    int64_t flat_dim = 0;  // narrow (per-point) flat size, accumulated below
    for (ag::Parameter* p : state.params) {
      la::Matrix& value = p->value;
      PPFR_CHECK_EQ(value.cols() % width, 0);
      const int cols = value.cols() / width;
      for (int l = 0; l < width; ++l) {
        const std::vector<double>& pt =
            points[static_cast<size_t>(p0 + std::min(l, count - 1))];
        for (int r = 0; r < value.rows(); ++r) {
          const double* src = pt.data() + flat_dim + static_cast<int64_t>(r) * cols;
          std::copy(src, src + cols, value.row(r) + static_cast<int64_t>(l) * cols);
        }
      }
      flat_dim += static_cast<int64_t>(value.rows()) * cols;
    }
    // One replay of the lane-wide graph evaluates all `count` gradients.
    const std::vector<double> wide = state.graph->Grad();
    PPFR_CHECK_EQ(static_cast<int64_t>(wide.size()), flat_dim * width);
    // De-interleave the wide flat gradient back into per-point order: wide
    // element (param i, row r, lane l, col c2) sits at
    //   width·off_i + r·cols_i·width + l·cols_i + c2,
    // the narrow destination at off_i + r·cols_i + c2.
    for (int l = 0; l < count; ++l) {
      std::vector<double>& g = (*grads)[static_cast<size_t>(p0 + l)];
      g.resize(static_cast<size_t>(flat_dim));
      int64_t off = 0;
      for (ag::Parameter* p : state.params) {
        const int cols = p->value.cols() / width;
        const double* base = wide.data() + off * width;
        for (int r = 0; r < p->value.rows(); ++r) {
          const double* src =
              base + (static_cast<int64_t>(r) * width + l) * cols;
          std::copy(src, src + cols, g.data() + off + static_cast<int64_t>(r) * cols);
        }
        off += static_cast<int64_t>(p->value.rows()) * cols;
      }
    }
  }
}

std::vector<std::vector<double>> GradLanePool::GradsAt(
    const std::vector<std::vector<double>>& points) {
  const int n = static_cast<int>(points.size());
  std::vector<std::vector<double>> grads(points.size());
  if (n == 0) return grads;
  // Two-level parallelism: `width_` fused lanes per replay × thread lanes
  // over chunks. The chunk grid depends only on width_, and each chunk is
  // self-contained, so any thread-lane count produces the same bits.
  const int chunks = (n + width_ - 1) / width_;
  const int lanes = std::min<int>(num_lanes(), chunks);
  const int kernel_threads =
      std::max(1, la::ActiveBackend().num_threads() / std::max(1, lanes));
  if (lanes == 1 || pool_ == nullptr) {
    RunChunks(0, 0, chunks, kernel_threads, points, &grads);
    return grads;
  }
  pool_->ParallelFor(0, lanes, 1, [&](int64_t l0, int64_t l1) {
    for (int64_t l = l0; l < l1; ++l) {
      const int begin = static_cast<int>(l * chunks / lanes);
      const int end = static_cast<int>((l + 1) * chunks / lanes);
      RunChunks(static_cast<int>(l), begin, end, kernel_threads, points, &grads);
    }
  });
  return grads;
}

TapePool* ReplayCache::GetOrCreateTapePool(
    const std::string& key, const std::function<std::unique_ptr<TapePool>()>& make) {
  std::unique_ptr<TapePool>& slot = tape_pools_[key];
  if (slot == nullptr) {
    slot = make();
  } else {
    // Warm hit: refresh the recorded forward at the parameters' current
    // values. Replay recycles every node buffer, so this is allocation-free.
    slot->Rewarm();
  }
  return slot.get();
}

GradLanePool* ReplayCache::GetOrCreateGradLanes(
    const std::string& key,
    const std::function<std::unique_ptr<GradLanePool>()>& make) {
  std::unique_ptr<GradLanePool>& slot = grad_lane_pools_[key];
  if (slot == nullptr) slot = make();
  return slot.get();
}

ReusableLossGraph::ReusableLossGraph(Builder builder,
                                     std::vector<ag::Parameter*> params)
    : builder_(std::move(builder)), params_(std::move(params)) {
  tape_.set_accumulate_param_grads(false);
}

std::vector<double> ReusableLossGraph::Grad() {
  if (recorded_) tape_.BeginReplay();
  ag::Var loss = builder_(tape_);
  PPFR_CHECK(loss.tape == &tape_);
  tape_.Backward(loss);
  recorded_ = true;
  std::vector<double> out;
  tape_.FlattenLeafGrads(params_, &out);
  return out;
}

}  // namespace ppfr::influence
