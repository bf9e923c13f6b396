#ifndef PPFR_DATA_DATASETS_H_
#define PPFR_DATA_DATASETS_H_

#include <string>
#include <vector>

#include "data/sbm.h"
#include "data/split.h"

namespace ppfr::data {

// Named benchmark substitutes. The real Cora / Citeseer / Pubmed / Enzymes /
// Credit datasets cannot be shipped in this offline build; each enum value
// maps to an SBM configuration calibrated to that dataset's class count, the
// homophily the paper reports (§VII-D: 0.81 / 0.74 / 0.80 / 0.66 / 0.62) and
// its sparse degree regime, scaled so a full paper sweep runs in minutes on a
// laptop (per-dataset node counts and degrees: DatasetConfig).
enum class DatasetId {
  kCoraLike,
  kCiteseerLike,
  kPubmedLike,
  kEnzymesLike,
  kCreditLike,
};

// Datasets used in the strong-homophily experiments (Tables II-IV, Figs 4-7).
std::vector<DatasetId> StrongHomophilyDatasets();
// Datasets used in the weak-homophily study (Table V).
std::vector<DatasetId> WeakHomophilyDatasets();

// Human-readable name ("CoraLike", ...).
std::string DatasetName(DatasetId id);

// The calibrated generator configuration for a dataset.
SbmConfig DatasetConfig(DatasetId id);

// Default number of labelled training nodes for a dataset.
int DefaultTrainCount(DatasetId id);

// A fully materialised benchmark: graph + features + labels + split.
struct Dataset {
  NodeClassificationData data;
  Split split;
};

// Generates the dataset and its split. Deterministic in (id, seed).
Dataset LoadDataset(DatasetId id, uint64_t seed);

}  // namespace ppfr::data

#endif  // PPFR_DATA_DATASETS_H_
