#include "ops/explicit_conv.hpp"

#include <vector>

#include "common/check.hpp"
#include "ops/reference.hpp"
#include "ops/tensor.hpp"

namespace swatop::ops {

ConvShape ExplicitConvOp::panel_shape(const ConvShape& s) {
  SWATOP_CHECK(s.ro() > 0 && s.co() > 0)
      << "kernel larger than input: " << s.to_string();
  ConvShape p;
  p.batch = s.batch;
  p.ni = s.ni * s.kr * s.kc;
  p.no = s.no;
  p.ri = s.ro();
  p.ci = s.co();
  p.kr = 1;
  p.kc = 1;
  p.stride = 1;
  return p;
}

ExplicitConvOp::ExplicitConvOp(const ConvShape& shape)
    : shape_(shape), gemm_(panel_shape(shape)) {}

std::string ExplicitConvOp::name() const {
  return "explicit_conv[" + shape_.to_string() + "]";
}

namespace {

/// im2col's reads in column-matrix order: per output row and K index, the
/// Co*B floats its panel row takes from one input row and channel --
/// contiguous at stride 1, Co runs of B floats at pitch S*B otherwise.
std::vector<sim::DmaCpeDesc> im2col_reads(sim::MainMemory::Addr in,
                                          const ConvShape& s) {
  const std::int64_t B = s.batch, Ni = s.ni, Ci = s.ci, S = s.stride;
  std::vector<sim::DmaCpeDesc> reads;
  reads.reserve(static_cast<std::size_t>(s.ro() * Ni * s.kr * s.kc));
  for (std::int64_t ro = 0; ro < s.ro(); ++ro)
    for (std::int64_t kr = 0; kr < s.kr; ++kr)
      for (std::int64_t kc = 0; kc < s.kc; ++kc)
        for (std::int64_t ni = 0; ni < Ni; ++ni) {
          sim::DmaCpeDesc d;
          d.mem_base = in + ((ro * S + kr) * Ni + ni) * Ci * B + kc * B;
          d.block = S == 1 ? s.co() * B : B;
          d.stride = (S - 1) * B;
          d.total = s.co() * B;
          reads.push_back(d);
        }
  return reads;
}

/// The seeded canonical input ([ri][ni][ci][b]) and weights
/// ([kr][kc][ni][no]) both hooks regenerate.
std::vector<float> seeded(std::int64_t n, std::uint64_t seed) {
  std::vector<float> v(static_cast<std::size_t>(n));
  Prng rng(seed);
  for (float& x : v) x = rng.next();
  return v;
}

}  // namespace

void ExplicitConvOp::im2col(sim::CoreGroup& cg, sim::MainMemory::Addr in,
                            sim::MainMemory::Addr dcol, const ConvShape& s) {
  sim::MainMemory::Addr dst = dcol;
  for (const sim::DmaCpeDesc& d : im2col_reads(in, s))
    for (std::int64_t i = 0; i < d.total; ++i)
      cg.mem().write(dst++, cg.mem().read(d.mem_base +
                                          i / d.block * (d.block + d.stride) +
                                          i % d.block));
}

void ExplicitConvOp::charge_im2col(sim::CoreGroup& cg,
                                   sim::MainMemory::Addr in,
                                   sim::MainMemory::Addr dcol,
                                   const ConvShape& s) {
  std::vector<sim::DmaCpeDesc> descs = im2col_reads(in, s);
  sim::DmaCpeDesc w;
  w.mem_base = dcol;
  w.block = w.total = s.ro() * s.ni * s.kr * s.kc * s.co() * s.batch;
  w.dir = sim::DmaDir::SpmToMem;
  descs.push_back(w);
  cg.charge_dma_cost_sync(cg.dma().cost(descs));
}

double ExplicitConvOp::im2col_cycles(const ConvShape& s,
                                     const sim::SimConfig& cfg) {
  sim::CoreGroup cg(cfg);
  charge_im2col(cg, 0, 0, s);
  return cg.now();
}

void ExplicitConvOp::fill_inputs(sim::CoreGroup& cg,
                                 const dsl::BoundTensors& bt,
                                 const dsl::Strategy& s) const {
  // The GEMM's own fill writes the weights -- canonical [K][no] from the
  // same seed, in the strategy's layout -- and a placeholder "in", which
  // the im2col of the seeded input then replaces.
  gemm_.fill_inputs(cg, bt, s);
  const std::vector<float> in = seeded(
      shape_.ri * shape_.ni * shape_.ci * shape_.batch, 7);
  const sim::MainMemory::Addr in_addr =
      cg.mem().alloc(static_cast<std::int64_t>(in.size()), "in_scratch");
  cg.mem().copy_in(in_addr, in);
  im2col(cg, in_addr, bt.at("in"), shape_);
}

double ExplicitConvOp::check_output(sim::CoreGroup& cg,
                                    const dsl::BoundTensors& bt,
                                    const dsl::Strategy&) const {
  const std::vector<float> in = seeded(
      shape_.ri * shape_.ni * shape_.ci * shape_.batch, 7);
  const std::vector<float> w =
      seeded(shape_.kr * shape_.kc * shape_.ni * shape_.no, 13);
  std::vector<float> ref(static_cast<std::size_t>(
      shape_.ro() * shape_.no * shape_.co() * shape_.batch));
  reference_conv(in.data(), w.data(), ref.data(), shape_);
  const std::int64_t n = static_cast<std::int64_t>(ref.size());
  auto got = cg.mem().view(bt.at("out"), n);
  return max_abs_diff(got.data(), ref.data(), n);
}

}  // namespace swatop::ops
