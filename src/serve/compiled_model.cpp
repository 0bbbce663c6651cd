#include "serve/compiled_model.hpp"

#include <mutex>

#include "common/check.hpp"
#include "nn/bn_folding.hpp"
#include "nn/layers_basic.hpp"
#include "nn/layers_conv.hpp"
#include "tensor/random.hpp"

namespace dsx::serve {

CompiledModel::CompiledModel(std::unique_ptr<nn::Sequential> model,
                             Shape image_shape, CompileOptions opts)
    : opts_(opts), image_shape_(std::move(image_shape)),
      model_(std::move(model)) {
  DSX_REQUIRE(model_ != nullptr, "CompiledModel: null model");
  DSX_REQUIRE(image_shape_.rank() == 3,
              "CompiledModel: image shape must be [C,H,W], got "
                  << image_shape_.to_string());
  DSX_REQUIRE(opts_.max_batch >= 1,
              "CompiledModel: max_batch must be >= 1, got " << opts_.max_batch);

  if (opts_.fold_bn) {
    report_.bn_folded = nn::fold_batchnorm(*model_);
  }

  // Strip top-level Identity placeholders (left by BN folding); they cost a
  // virtual call per step and nothing else, but a frozen plan should not
  // carry dead steps.
  for (size_t i = model_->size(); i-- > 0;) {
    if (dynamic_cast<nn::Identity*>(&model_->layer(i)) != nullptr) {
      model_->erase_layer(i);
      ++report_.identities_stripped;
    }
  }

  // Fold each top-level ReLU into the layer right before it when that layer
  // has an epilogue to take it; the ReLU step disappears from the plan.
  for (size_t i = model_->size(); i-- > 1;) {
    if (dynamic_cast<nn::ReLU*>(&model_->layer(i)) != nullptr &&
        model_->layer(i - 1).fuse_relu()) {
      model_->erase_layer(i);
      ++report_.relu_fused;
    }
  }

  if (opts_.freeze_scc_fused) {
    model_->for_each_layer([this](nn::Layer& layer) {
      auto* scc = dynamic_cast<nn::SCCConv*>(&layer);
      if (scc != nullptr && scc->impl() != nn::SCCImpl::kFused) {
        scc->set_impl(nn::SCCImpl::kFused);
        ++report_.scc_frozen;
      }
    });
  }

  report_.steps = static_cast<int64_t>(model_->size());
  for (const nn::Param* p : model_->params()) {
    report_.param_floats += p->value.numel();
  }

  // Shape-check the plan end to end.
  (void)model_->output_shape(input_shape(opts_.max_batch));

  if (opts_.tuning != tune::Mode::kOff) run_tuning_pass();

  // Size the arena with one dry run at max batch; steady-state run() calls
  // stay within this high-water mark. With tuning active the baked
  // candidates execute here, so the mark covers the winners' scratch too.
  Tensor dry(input_shape(opts_.max_batch));
  (void)run(dry);
  report_.workspace_floats = ws_.peak_floats();
}

void CompiledModel::run_tuning_pass() {
  // The pass reconfigures the process-global Session (mode, tuner options,
  // cache path), so concurrent tuning passes must not interleave their
  // save/restore pairs - this mutex serializes them. Dispatch from OTHER
  // threads during this window sees the compile's MODE (process-global;
  // serving-tier convention applies: compile plans before taking traffic)
  // but NOT its fast-math flag - ScopedFastMath is thread-local precisely
  // so a concurrent strict caller can never have a kUlpBounded winner baked
  // into its call sites by this compile's opt-in.
  static std::mutex pass_mu;
  std::lock_guard<std::mutex> pass_lock(pass_mu);

  tune::Session& session = tune::Session::global();

  // Exception-safe restore of everything the pass touches: a throwing dry
  // run must not leak compile-time settings into the global session.
  struct SessionRestore {
    tune::Session& session;
    tune::TunerOptions opts = session.tuner_options();
    std::string cache_path = session.cache_path();
    ~SessionRestore() {
      session.set_tuner_options(opts);
      // load_existing=false: re-reading the old file here would let its
      // stale records overwrite measurements this pass just made.
      session.set_cache_path(cache_path, /*load_existing=*/false);
      session.set_autosave_deferred(false);
    }
  } restore{session};

  session.set_tuner_options(opts_.tuner);
  // Install this compile's cache file (empty = in-memory only, even if a
  // previous compile armed a path); loads existing records, and defer the
  // per-measurement autosave - the pass saves once at the end.
  session.set_cache_path(opts_.tuning_cache);
  session.set_autosave_deferred(true);

  {
    // One dry run at max batch under the requested mode; Conv2d/SCCConv/
    // DepthwiseConv2d dispatch resolves (and bakes) each call site on first
    // encounter. The input is random, not zero: candidate kernels have
    // value-dependent fast paths (the GEMM routes skip zero operands), so an
    // all-zero dry tensor would flatter them relative to production
    // activations. Fast-math admission is this compile's opt-in OR the
    // session-level (DSX_FAST_MATH) one - a strict compile on a fast-math
    // session must not silently revoke the operator's choice, and a strict
    // session stays strict by default.
    tune::Session::ScopedMode scope(opts_.tuning);
    tune::Session::ScopedFastMath fm_scope(opts_.allow_fast_math ||
                                           session.allow_fast_math());
    ws_.reset();
    Rng rng(0x7541u);
    Tensor dry = random_uniform(input_shape(opts_.max_batch), rng);
    (void)model_->forward_inference(dry, ws_);
  }
  session.set_autosave_deferred(false);
  if (!opts_.tuning_cache.empty()) session.save_cache();

  model_->for_each_layer([this](nn::Layer& layer) {
    const tune::TuningRecord* rec = nullptr;
    if (auto* conv = dynamic_cast<nn::Conv2d*>(&layer)) {
      if (!conv->tuning_site().resolved()) return;
      ++report_.layers_tuned;
      if (conv->tuning_site().record.has_value()) {
        rec = &*conv->tuning_site().record;
      }
    } else if (auto* scc = dynamic_cast<nn::SCCConv*>(&layer)) {
      if (!scc->tuning_site().resolved()) return;
      ++report_.layers_tuned;
      if (scc->tuning_site().record.has_value()) {
        rec = &*scc->tuning_site().record;
      }
    } else if (auto* dw = dynamic_cast<nn::DepthwiseConv2d*>(&layer)) {
      if (!dw->tuning_site().resolved()) return;
      ++report_.layers_tuned;
      if (dw->tuning_site().record.has_value()) {
        rec = &*dw->tuning_site().record;
      }
    }
    if (rec == nullptr) return;
    report_.tuned.push_back({layer.name(), rec->variant, rec->grain,
                             rec->fidelity, rec->median_ns, rec->default_ns});
  });
}

std::unique_ptr<CompiledModel> CompiledModel::clone_replica(
    std::optional<tune::Mode> tuning) const {
  CompileOptions opts = opts_;
  if (tuning.has_value()) {
    opts.tuning = *tuning;
  } else if (opts.tuning == tune::Mode::kTune) {
    opts.tuning = tune::Mode::kCached;  // never measure by default
  }
  // Re-running the compile on the clone is cheap: BN is already folded (the
  // fold is a no-op), SCC layers are already fused, and a cache-hitting
  // tuning pass resolves every call site without measuring.
  return std::make_unique<CompiledModel>(model_->clone_sequential(),
                                         image_shape_, opts);
}

Shape CompiledModel::input_shape(int64_t batch) const {
  return make_nchw(batch, image_shape_.dim(0), image_shape_.dim(1),
                   image_shape_.dim(2));
}

Shape CompiledModel::output_shape(int64_t batch) const {
  return model_->output_shape(input_shape(batch));
}

void CompiledModel::set_metric_scope(const std::string& model, int replica) {
  if (model.empty()) {
    ws_used_ = {};
    ws_peak_ = {};
    ws_capacity_ = {};
    return;
  }
  obs::Labels labels{{"model", model}};
  if (replica >= 0) labels.emplace_back("replica", std::to_string(replica));
  obs::Registry& reg = obs::Registry::global();
  ws_used_ = reg.gauge("dsx_serve_workspace_used_floats", labels,
                       "Arena floats live after the plan's last run().");
  ws_peak_ = reg.gauge("dsx_serve_workspace_peak_floats", labels,
                       "Arena high-water mark in floats (cumulative).");
  ws_capacity_ = reg.gauge("dsx_serve_workspace_capacity_floats", labels,
                           "Arena reservation in floats.");
  ws_used_.set(ws_.used_floats());
  ws_peak_.set(ws_.peak_floats());
  ws_capacity_.set(ws_.capacity_floats());
}

Tensor CompiledModel::run(const Tensor& batch) {
  DSX_REQUIRE(batch.shape().rank() == 4,
              "CompiledModel::run: input must be NCHW, got "
                  << batch.shape().to_string());
  DSX_REQUIRE(batch.shape().c() == image_shape_.dim(0) &&
                  batch.shape().h() == image_shape_.dim(1) &&
                  batch.shape().w() == image_shape_.dim(2),
              "CompiledModel::run: image shape "
                  << batch.shape().to_string() << " does not match compiled "
                  << image_shape_.to_string());
  DSX_REQUIRE(batch.shape().n() >= 1 && batch.shape().n() <= opts_.max_batch,
              "CompiledModel::run: batch " << batch.shape().n()
                                           << " outside [1, "
                                           << opts_.max_batch << "]");
  ws_.reset();
  Tensor y = model_->forward_inference(batch, ws_);
  // Arena occupancy after the forward - unscoped plans pay three null
  // checks, scoped ones three relaxed stores (the always-allowed
  // metric-handle write path; float work untouched).
  ws_used_.set(ws_.used_floats());
  ws_peak_.set(ws_.peak_floats());
  ws_capacity_.set(ws_.capacity_floats());
  // The result may alias arena memory; detach before the next reset().
  return y.clone();
}

}  // namespace dsx::serve
