#include "graph/graph.hpp"

#include <algorithm>
#include <deque>
#include <sstream>

#include "common/check.hpp"

namespace swatop::graph {

const char* node_kind_name(NodeKind k) {
  switch (k) {
    case NodeKind::Conv: return "conv";
    case NodeKind::Bias: return "bias";
    case NodeKind::Relu: return "relu";
    case NodeKind::MaxPool2x2: return "maxpool";
    case NodeKind::Pad: return "pad";
    case NodeKind::Add: return "add";
  }
  return "?";
}

void Graph::add_input(const std::string& tensor, TensorShape shape) {
  inputs_.emplace_back(tensor, shape);
}

int Graph::add(Node n) {
  nodes_.push_back(std::move(n));
  return static_cast<int>(nodes_.size()) - 1;
}

namespace {

/// Expected input arity of a node: Add and fused residual convs take two.
std::size_t arity(const Node& n) {
  if (n.kind == NodeKind::Add) return 2;
  if (n.kind == NodeKind::Conv && n.epilogue.residual) return 2;
  return 1;
}

}  // namespace

bool Graph::infer(const Node& n, const std::vector<TensorShape>& in,
                  TensorShape* out, std::vector<std::string>* problems)
    const {
  auto fail = [&](const std::string& what) {
    problems->push_back("node '" + n.name + "' (" + node_kind_name(n.kind) +
                        "): " + what);
    return false;
  };
  switch (n.kind) {
    case NodeKind::Conv: {
      if (n.kernel <= 0 || n.channels_out <= 0 || n.stride <= 0)
        return fail("kernel, channels_out and stride must be positive");
      if (in[0].hw < n.kernel) {
        std::ostringstream os;
        os << "kernel " << n.kernel << " larger than input extent "
           << in[0].hw;
        return fail(os.str());
      }
      if (n.epilogue.out_pad < 0) return fail("negative fused output pad");
      const TensorShape raw = {(in[0].hw - n.kernel) / n.stride + 1,
                               n.channels_out};
      if (n.epilogue.residual) {
        // The fused residual-add must see a same-shape operand *here*,
        // before the planner sizes arenas from the inferred shapes --
        // otherwise the mismatch surfaces as an arena assert mid-run.
        if (in.size() < 2)
          return fail("fused residual epilogue without a second input");
        if (in[1] != raw) {
          std::ostringstream os;
          os << "fused residual operand shape " << in[1].hw << "^2x"
             << in[1].channels << " does not match the conv output "
             << raw.hw << "^2x" << raw.channels;
          return fail(os.str());
        }
      }
      *out = {raw.hw + 2 * n.epilogue.out_pad, n.channels_out};
      return true;
    }
    case NodeKind::Bias:
    case NodeKind::Relu:
      *out = in[0];
      return true;
    case NodeKind::MaxPool2x2:
      if (in[0].hw % 2 != 0) {
        std::ostringstream os;
        os << "2x2 pool needs an even spatial extent, got " << in[0].hw;
        return fail(os.str());
      }
      *out = {in[0].hw / 2, in[0].channels};
      return true;
    case NodeKind::Pad:
      if (n.pad < 0) return fail("negative pad");
      *out = {in[0].hw + 2 * n.pad, in[0].channels};
      return true;
    case NodeKind::Add:
      if (in[0] != in[1]) {
        std::ostringstream os;
        os << "operand shapes differ: " << in[0].hw << "^2x" << in[0].channels
           << " vs " << in[1].hw << "^2x" << in[1].channels;
        return fail(os.str());
      }
      *out = in[0];
      return true;
  }
  return fail("unknown node kind");
}

std::vector<std::string> Graph::validate() const {
  std::vector<std::string> problems;

  // Producer map: every tensor has exactly one producer (a node or a graph
  // input declaration).
  std::unordered_map<std::string, int> producer;  // -1 = graph input
  for (const auto& [t, shape] : inputs_) {
    if (shape.hw <= 0 || shape.channels <= 0)
      problems.push_back("input tensor '" + t + "' has non-positive shape");
    if (!producer.emplace(t, -1).second)
      problems.push_back("input tensor '" + t + "' declared twice");
  }
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    if (n.output.empty())
      problems.push_back("node '" + n.name + "' has no output tensor");
    else if (!producer.emplace(n.output, static_cast<int>(i)).second)
      problems.push_back("tensor '" + n.output + "' produced more than once");
    if (n.inputs.size() != arity(n)) {
      std::ostringstream os;
      os << "node '" << n.name << "' (" << node_kind_name(n.kind)
         << ") expects " << arity(n) << " input(s), has "
         << n.inputs.size();
      problems.push_back(os.str());
    }
  }
  for (const Node& n : nodes_)
    for (const std::string& t : n.inputs)
      if (!producer.count(t))
        problems.push_back("node '" + n.name + "' consumes tensor '" + t +
                           "' that nothing produces");
  if (!problems.empty()) return problems;  // later checks assume these hold

  // Kahn's algorithm over tensor availability: shape-infer each node as it
  // becomes ready; nodes never ready form a dependency cycle.
  std::unordered_map<std::string, TensorShape> shape;
  for (const auto& [t, s] : inputs_) shape[t] = s;
  std::vector<bool> done(nodes_.size(), false);
  bool progress = true;
  std::size_t remaining = nodes_.size();
  while (progress && remaining > 0) {
    progress = false;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (done[i]) continue;
      const Node& n = nodes_[i];
      std::vector<TensorShape> in;
      bool ready = true;
      for (const std::string& t : n.inputs) {
        auto it = shape.find(t);
        if (it == shape.end()) {
          ready = false;
          break;
        }
        in.push_back(it->second);
      }
      if (!ready) continue;
      TensorShape out;
      if (infer(n, in, &out, &problems)) shape[n.output] = out;
      // Even on a shape problem, mark done so one bad node doesn't also
      // report everything downstream as a cycle.
      shape.emplace(n.output, TensorShape{});
      done[i] = true;
      --remaining;
      progress = true;
    }
  }
  if (remaining > 0) {
    std::ostringstream os;
    os << "dependency cycle through node(s):";
    for (std::size_t i = 0; i < nodes_.size(); ++i)
      if (!done[i]) os << " '" << nodes_[i].name << "'";
    problems.push_back(os.str());
  }
  return problems;
}

void Graph::validate_or_throw() const {
  const std::vector<std::string> problems = validate();
  if (problems.empty()) return;
  std::ostringstream os;
  os << "graph '" << name_ << "' is invalid:";
  for (const std::string& p : problems) os << "\n  - " << p;
  throw CheckError(os.str());
}

std::vector<int> Graph::topo_order() const {
  validate_or_throw();
  std::unordered_map<std::string, bool> avail;
  for (const auto& [t, s] : inputs_) avail[t] = true;
  std::vector<int> order;
  std::vector<bool> done(nodes_.size(), false);
  while (order.size() < nodes_.size()) {
    bool progress = false;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (done[i]) continue;
      const Node& n = nodes_[i];
      const bool ready = std::all_of(
          n.inputs.begin(), n.inputs.end(),
          [&](const std::string& t) { return avail.count(t) > 0; });
      if (!ready) continue;
      avail[n.output] = true;
      order.push_back(static_cast<int>(i));
      done[i] = true;
      progress = true;
    }
    SWATOP_CHECK(progress) << "topo_order on a cyclic graph";
  }
  return order;
}

std::unordered_map<std::string, TensorShape> Graph::shapes() const {
  std::unordered_map<std::string, TensorShape> shape;
  for (const auto& [t, s] : inputs_) shape[t] = s;
  std::vector<std::string> problems;
  for (int i : topo_order()) {
    const Node& n = nodes_[static_cast<std::size_t>(i)];
    std::vector<TensorShape> in;
    for (const std::string& t : n.inputs) in.push_back(shape.at(t));
    TensorShape out;
    SWATOP_CHECK(infer(n, in, &out, &problems))
        << (problems.empty() ? "shape inference failed" : problems.back());
    shape[n.output] = out;
  }
  return shape;
}

std::vector<std::string> Graph::outputs() const {
  std::unordered_map<std::string, bool> consumed;
  for (const Node& n : nodes_)
    for (const std::string& t : n.inputs) consumed[t] = true;
  std::vector<std::string> out;
  for (const auto& [t, s] : inputs_)
    if (!consumed.count(t)) out.push_back(t);
  for (const Node& n : nodes_)
    if (!consumed.count(n.output)) out.push_back(n.output);
  return out;
}

ops::ConvShape Graph::conv_shape(const Node& n, std::int64_t batch) const {
  SWATOP_CHECK(n.kind == NodeKind::Conv)
      << "conv_shape on a " << node_kind_name(n.kind) << " node";
  const auto shape = shapes();
  const TensorShape in = shape.at(n.inputs[0]);
  ops::ConvShape s;
  s.batch = batch;
  s.ni = in.channels;
  s.no = n.channels_out;
  s.ri = in.hw;
  s.ci = in.hw;
  s.kr = n.kernel;
  s.kc = n.kernel;
  s.stride = n.stride;
  return s;
}

std::int64_t Graph::conv_count() const {
  return std::count_if(nodes_.begin(), nodes_.end(), [](const Node& n) {
    return n.kind == NodeKind::Conv;
  });
}

}  // namespace swatop::graph
