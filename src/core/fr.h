#ifndef PPFR_CORE_FR_H_
#define PPFR_CORE_FR_H_

#include <memory>
#include <vector>

#include "influence/influence.h"
#include "la/csr_matrix.h"
#include "nn/models.h"

namespace ppfr::core {

// Fairness-aware re-weighting (§VI-B1): after vanilla training, find per-node
// loss weights w ∈ [-1,1]^|Vl| by the QCLP of Eq. 13 —
//   min Σ_v w_v I_fbias(w_v)   s.t. ‖w‖² ≤ α|Vl|,
//   Σ_v w_v I_futil(w_v) ≤ β Σ I⁺_futil(w_v),  -1 ≤ w_v ≤ 1 —
// then fine-tune with per-node weights (1 + w_v).
struct FrConfig {
  double alpha = 0.9;
  double beta = 0.1;
  // Restrict the QCLP to zero-sum reweightings (Σw = 0). Keeps the total
  // loss mass fixed so the solver redistributes weight instead of globally
  // shrinking it; markedly better bias/accuracy trade on the synthetic
  // benchmarks (ablated in the fig6 sweep).
  bool zero_sum = true;
  influence::InfluenceConfig influence;
};

struct FrOutput {
  std::vector<double> w;                // solution, aligned with train nodes
  std::vector<double> sample_weights;   // 1 + w (ready for TrainConfig)
  std::vector<double> bias_influence;   // I_fbias(w_v)
  std::vector<double> util_influence;   // I_futil(w_v)
  double objective = 0.0;
  // Inverse-HVP solve health behind the influences: how many CG right-hand
  // sides the solve processed and how many of those missed the residual
  // tolerance. Surfaced per cell as the `cg_unconverged` artifact metric so
  // sweeps flag silently-degraded solves.
  int cg_total_rhs = 0;
  int cg_unconverged = 0;
};

FrOutput ComputeFairnessWeights(nn::GnnModel* model, const nn::GraphContext& ctx,
                                const std::vector<int>& train_nodes,
                                const std::vector<int>& labels,
                                const std::shared_ptr<const la::CsrMatrix>& laplacian,
                                const FrConfig& config);

}  // namespace ppfr::core

#endif  // PPFR_CORE_FR_H_
