#include "graph/reference.hpp"

#include <cmath>

#include "common/check.hpp"
#include "ops/reference.hpp"

namespace swatop::graph {

namespace {

/// splitmix64 finalizer: a cheap, well-mixed 64-bit hash.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t name_seed(const std::string& name) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a
  for (char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Uniform in [-1, 1) from a hash.
float unit(std::uint64_t h) {
  return static_cast<float>(h >> 11) * (2.0f / 9007199254740992.0f) - 1.0f;
}

}  // namespace

std::vector<float> make_weights(const std::string& node_name,
                                const ops::ConvShape& s) {
  const std::int64_t n = s.kr * s.kc * s.ni * s.no;
  const float scale = std::sqrt(
      6.0f / static_cast<float>(s.kr * s.kc * s.ni));
  const std::uint64_t seed = name_seed(node_name);
  std::vector<float> w(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i)
    w[static_cast<std::size_t>(i)] =
        scale * unit(mix(seed ^ static_cast<std::uint64_t>(i)));
  return w;
}

std::vector<float> make_bias(const std::string& node_name,
                             std::int64_t channels) {
  const std::uint64_t seed = name_seed(node_name);
  std::vector<float> b(static_cast<std::size_t>(channels));
  for (std::int64_t c = 0; c < channels; ++c)
    b[static_cast<std::size_t>(c)] =
        0.1f * unit(mix(seed ^ static_cast<std::uint64_t>(c)));
  return b;
}

void fill_input(const std::string& tensor, const TensorShape& shape,
                std::int64_t batch, float* dst) {
  const std::uint64_t seed = name_seed(tensor);
  std::int64_t i = 0;
  for (std::int64_t r = 0; r < shape.hw; ++r)
    for (std::int64_t ch = 0; ch < shape.channels; ++ch)
      for (std::int64_t c = 0; c < shape.hw; ++c)
        for (std::int64_t b = 0; b < batch; ++b) {
          // 16 bits per index keeps keys collision-free for every network
          // geometry we build (hw <= 1024, channels <= 4096, batch < 65536).
          const std::uint64_t key =
              (static_cast<std::uint64_t>(r) << 48) |
              (static_cast<std::uint64_t>(ch) << 32) |
              (static_cast<std::uint64_t>(c) << 16) |
              static_cast<std::uint64_t>(b);
          dst[i++] = unit(mix(seed ^ key));
        }
}

std::unordered_map<std::string, std::vector<float>> reference_forward(
    const Graph& g, std::int64_t batch) {
  SWATOP_CHECK(batch >= 1) << "reference_forward batch " << batch;
  const std::vector<int> order = g.topo_order();
  const auto shapes = g.shapes();

  std::unordered_map<std::string, int> uses;
  for (int idx : order)
    for (const std::string& t : g.nodes()[static_cast<std::size_t>(idx)].inputs)
      ++uses[t];

  std::unordered_map<std::string, std::vector<float>> live;
  for (const auto& [t, shape] : g.inputs()) {
    std::vector<float> v(static_cast<std::size_t>(shape.floats(batch)));
    fill_input(t, shape, batch, v.data());
    live.emplace(t, std::move(v));
  }

  for (int idx : order) {
    const Node& n = g.nodes()[static_cast<std::size_t>(idx)];
    const TensorShape& in_s = shapes.at(n.inputs[0]);
    const TensorShape& out_s = shapes.at(n.output);
    const std::vector<float>& in = live.at(n.inputs[0]);
    std::vector<float> out(static_cast<std::size_t>(out_s.floats(batch)));
    switch (n.kind) {
      case NodeKind::Conv: {
        const ops::ConvShape s = Graph::conv_shape(n, in_s, batch);
        const std::vector<float> w = make_weights(n.name, s);
        ops::reference_conv(in.data(), w.data(), out.data(), s);
        break;
      }
      case NodeKind::Bias: {
        out = in;
        const std::vector<float> b = make_bias(n.name, out_s.channels);
        ops::reference_bias_add(out.data(), b.data(), out_s.hw,
                                out_s.channels, out_s.hw, batch);
        break;
      }
      case NodeKind::Relu:
        out = in;
        ops::reference_relu(out.data(), out_s.floats(batch));
        break;
      case NodeKind::MaxPool2x2:
        ops::reference_maxpool2x2(in.data(), out.data(), in_s.hw,
                                  in_s.channels, in_s.hw, batch);
        break;
      case NodeKind::Pad:
        ops::reference_pad(in.data(), out.data(), in_s.hw, in_s.channels,
                           in_s.hw, batch, n.pad);
        break;
      case NodeKind::Add:
        ops::reference_eltwise_add(in.data(), live.at(n.inputs[1]).data(),
                                   out.data(), out_s.floats(batch));
        break;
    }
    for (const std::string& t : n.inputs)
      if (--uses.at(t) == 0) live.erase(t);
    live.emplace(n.output, std::move(out));
  }
  return live;
}

}  // namespace swatop::graph
