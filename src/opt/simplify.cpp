#include "opt/simplify.hpp"

#include "ir/mutator.hpp"

namespace swatop::opt {

namespace ir = swatop::ir;

namespace {

/// Substitute var -> 0 through every expression of a subtree.
void subst_zero(const ir::StmtPtr& s, ir::VarId v) {
  const ir::Expr zero = ir::cst(0);
  ir::visit(s, [&](const ir::StmtPtr& n) {
    auto sub = [&](ir::Expr& e) {
      if (e != nullptr) e = ir::substitute(e, v, zero);
    };
    sub(n->extent);
    sub(n->cond);
    sub(n->zero_off);
    sub(n->zero_floats);
    sub(n->dma.view.base);
    sub(n->dma.view.rows);
    sub(n->dma.view.cols);
    sub(n->dma.rows_p);
    sub(n->dma.cols_p);
    sub(n->dma.spm_off);
    sub(n->dma.epi.channel0);
    sub(n->dma.epi.res.base);
    sub(n->dma.epi.res.rows);
    sub(n->dma.epi.res.cols);
    sub(n->dma.reply);
    sub(n->wait_reply);
    sub(n->gemm.M);
    sub(n->gemm.N);
    sub(n->gemm.K);
    sub(n->gemm.a.base);
    sub(n->gemm.a.rows);
    sub(n->gemm.a.cols);
    sub(n->gemm.b.base);
    sub(n->gemm.b.rows);
    sub(n->gemm.b.cols);
    sub(n->gemm.c.base);
    sub(n->gemm.c.rows);
    sub(n->gemm.c.cols);
    sub(n->gemm.a_off);
    sub(n->gemm.b_off);
    sub(n->gemm.c_off);
  });
}

}  // namespace

void eliminate_unit_loops(ir::StmtPtr& root) {
  root = ir::transform(root, [](ir::StmtPtr s) -> ir::StmtPtr {
    if (s->kind != ir::StmtKind::For) return s;
    if (!ir::is_const(s->extent) || ir::as_cst(s->extent) != 1) return s;
    subst_zero(s->for_body, s->var);
    return s->for_body;
  });
  // Splice nested Seqs so later passes (double buffering scans for DMA gets
  // as *direct* loop-body children) see a flat statement list.
  root = ir::transform(root, [](ir::StmtPtr s) -> ir::StmtPtr {
    if (s->kind != ir::StmtKind::Seq) return s;
    bool nested = false;
    for (const ir::StmtPtr& c : s->body)
      nested = nested || c->kind == ir::StmtKind::Seq;
    if (!nested) return s;
    std::vector<ir::StmtPtr> flat;
    for (ir::StmtPtr& c : s->body) {
      if (c->kind == ir::StmtKind::Seq)
        flat.insert(flat.end(), c->body.begin(), c->body.end());
      else
        flat.push_back(std::move(c));
    }
    s->body = std::move(flat);
    return s;
  });
}

}  // namespace swatop::opt
