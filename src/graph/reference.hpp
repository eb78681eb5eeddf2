// Deterministic network data and a naive whole-net forward pass. The fill
// helpers are shared by the engine (which writes the same values into
// simulated main memory) and the host reference below, so "engine output ==
// reference output" is a real end-to-end functional check, not a tautology.
//
// Weights are scaled ~sqrt(6 / fan_in) (He-style uniform) so activations
// neither explode nor vanish across the 13+ conv layers of the evaluation
// networks; everything is a pure hash of (name, indices) -- no RNG state.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/graph.hpp"
#include "ops/conv_common.hpp"

namespace swatop::graph {

/// Canonical [kr][kc][ni][no] conv weights for a Conv node, seeded by the
/// node's name, scaled sqrt(6 / (kr*kc*ni)).
std::vector<float> make_weights(const std::string& node_name,
                                const ops::ConvShape& s);

/// Per-channel bias for a Bias node, seeded by the node's name, in
/// [-0.1, 0.1].
std::vector<float> make_bias(const std::string& node_name,
                             std::int64_t channels);

/// Fill a graph-input activation tensor [hw][ch][hw][batch] with values
/// seeded by (tensor name, row, channel, col, image).
void fill_input(const std::string& tensor, const TensorShape& shape,
                std::int64_t batch, float* dst);

/// Naive host forward pass over the whole graph: returns the network output
/// tensors (name -> [hw][ch][hw][batch] data). Intermediate tensors are
/// freed as soon as their last consumer ran, bounding host memory to the
/// live set. Throws swatop::CheckError when the graph is invalid.
std::unordered_map<std::string, std::vector<float>> reference_forward(
    const Graph& g, std::int64_t batch);

}  // namespace swatop::graph
