#pragma once
// Umbrella header: the full public API of the ABD-HFL library.
//
// Most applications only need core/experiment.hpp (the scenario driver) or
// core/hfl_runner.hpp / core/async_runner.hpp (direct runner control); this
// header pulls in everything for exploratory use.

// Core paradigm.
#include "core/async_runner.hpp"
#include "core/experiment.hpp"
#include "core/hfl_runner.hpp"
#include "core/pipeline.hpp"
#include "core/trainer.hpp"
#include "core/types.hpp"
#include "core/vanilla_fl.hpp"

// Topology.
#include "topology/byzantine.hpp"
#include "topology/churn.hpp"
#include "topology/tree.hpp"

// Aggregation rules.
#include "agg/aggregator.hpp"
#include "agg/autogm.hpp"
#include "agg/clipping.hpp"
#include "agg/cluster_agg.hpp"
#include "agg/geomed.hpp"
#include "agg/krum.hpp"
#include "agg/mean.hpp"
#include "agg/median.hpp"

// Consensus protocols.
#include "consensus/committee.hpp"
#include "consensus/consensus.hpp"
#include "consensus/pbft.hpp"
#include "consensus/voting.hpp"

// Attacks.
#include "attacks/data_poison.hpp"
#include "attacks/model_attack.hpp"

// Substrates.
#include "data/dataset.hpp"
#include "data/mnist_idx.hpp"
#include "data/partition.hpp"
#include "data/synth_digits.hpp"
#include "nn/activations.hpp"
#include "nn/conv.hpp"
#include "nn/dense.hpp"
#include "nn/loss.hpp"
#include "nn/mlp.hpp"
#include "nn/quantize.hpp"
#include "nn/serialize.hpp"
#include "nn/sgd.hpp"
#include "sim/latency.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "tensor/matrix.hpp"
#include "tensor/ops.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
