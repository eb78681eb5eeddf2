// Graph IR for whole-network execution: nodes are layer operations (tuned
// CPE convolutions plus lightweight MPE-side elementwise passes), edges are
// named activation tensors. The IR is deliberately small -- exactly what the
// paper's evaluation networks (VGG16 / ResNet / YOLO, Table 4) need -- and
// validated in the spirit of src/check/: unknown or doubly-produced
// tensors, dependency cycles and shape mismatches are all reported before
// anything executes.
//
// Batch size is a run-time parameter of the engine, not part of the graph:
// every tensor shape is per-batch-element (square spatial extent x
// channels), laid out [row][channel][col][batch] like the operator
// subsystem's canonical activation tensors.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "dsl/epilogue.hpp"
#include "ops/conv_common.hpp"

namespace swatop::graph {

enum class NodeKind {
  Conv,        ///< tuned convolution over an already-padded input
  Bias,        ///< += bias[channel] (MPE-side)
  Relu,        ///< max(x, 0) (MPE-side)
  MaxPool2x2,  ///< 2x2/stride-2 spatial max (MPE-side)
  Pad,         ///< materialize a zero border (MPE-side)
  Add,         ///< elementwise sum of two tensors (residual shortcuts)
};

const char* node_kind_name(NodeKind k);

/// Per-batch-element geometry of one tensor edge.
struct TensorShape {
  std::int64_t hw = 0;        ///< square spatial extent
  std::int64_t channels = 0;

  std::int64_t floats(std::int64_t batch) const {
    return hw * hw * channels * batch;
  }
  friend bool operator==(const TensorShape& a, const TensorShape& b) {
    return a.hw == b.hw && a.channels == b.channels;
  }
  friend bool operator!=(const TensorShape& a, const TensorShape& b) {
    return !(a == b);
  }
};

struct Node {
  NodeKind kind = NodeKind::Relu;
  std::string name;
  std::vector<std::string> inputs;  ///< consumed tensor names
  std::string output;               ///< produced tensor name
  /// Conv parameters (kind == Conv). The input is expected pre-padded (a
  /// Pad node upstream), so out_hw = (in_hw - kernel) / stride + 1 (plus
  /// the fused epilogue's output border when set).
  std::int64_t kernel = 0;
  std::int64_t channels_out = 0;
  std::int64_t stride = 1;
  /// Pad parameter (kind == Pad): zero border width on each side.
  std::int64_t pad = 0;
  /// Fused elementwise tail (kind == Conv, written by fuse_epilogues):
  /// bias / residual-add / relu applied in the conv's store path, plus an
  /// absorbed output border. With epilogue.residual the node takes a second
  /// input -- the residual operand, shaped like the *raw* conv output.
  dsl::EpilogueSpec epilogue;
  /// Name of the folded Bias node (seeds its deterministic weights).
  std::string bias_name;
};

/// A directed network of Nodes over named tensors. Build with add_input /
/// add, then validate() (or let topo_order()/shapes() throw).
class Graph {
 public:
  explicit Graph(std::string name = "net") : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Declare a graph input tensor (no producing node).
  void add_input(const std::string& tensor, TensorShape shape);

  /// Append a node; returns its index.
  int add(Node n);

  const std::vector<Node>& nodes() const { return nodes_; }
  const std::vector<std::pair<std::string, TensorShape>>& inputs() const {
    return inputs_;
  }

  /// Every problem found (empty = valid): inputs nobody produces, tensors
  /// produced twice, dependency cycles, per-kind shape violations
  /// (mismatched Add operands, odd-extent pools, kernels larger than the
  /// input, non-positive extents).
  std::vector<std::string> validate() const;

  /// Throws swatop::CheckError listing every problem when invalid.
  void validate_or_throw() const;

  /// Topological execution order (node indices); throws on a cycle or any
  /// other validation failure.
  std::vector<int> topo_order() const;

  /// Inferred shape of every tensor (graph inputs + node outputs); throws
  /// when the graph is invalid.
  std::unordered_map<std::string, TensorShape> shapes() const;

  /// Tensors produced (or declared input) but never consumed -- the network
  /// outputs, in first-production order.
  std::vector<std::string> outputs() const;

  /// The operator-subsystem ConvShape of a Conv node at a batch size
  /// (channels and padded spatial extent from the inferred input shape).
  ops::ConvShape conv_shape(const Node& n, std::int64_t batch) const;

  /// Number of Conv nodes (the tuned layers).
  std::int64_t conv_count() const;

 private:
  /// Shape inference for one node given resolved input shapes; appends
  /// problems instead of throwing. Returns false when the output shape
  /// could not be inferred.
  bool infer(const Node& n, const std::vector<TensorShape>& in,
             TensorShape* out, std::vector<std::string>* problems) const;

  std::string name_;
  std::vector<Node> nodes_;
  std::vector<std::pair<std::string, TensorShape>> inputs_;
};

}  // namespace swatop::graph
