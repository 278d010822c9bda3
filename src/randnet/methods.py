"""Named model presets binding architectures to hyperparameter axes.

Every benchmark method is a (connectivity, decoder regularization,
denoising, classifier) tuple plus the grid axes it actually searches.
The regularization weight lam is always 1/C, one shared C across
autoencoder layers and the classifier.
"""

from dataclasses import dataclass

from .autoencoders import AutoencoderSpec
from .data import ACTIVATION, checked, integer, is_finite, is_number
from .deep import DeepConfig, DeepModel, deep_predict_path, deep_train, mlkelm_train
from .shallow import predict_path as shallow_predict_path
from .shallow import train_classifier
from .solvers import ElasticNetConfig, KernelSpec, L1Config, RidgeConfig

_COUNT = integer(1)
_POSITIVE = (lambda v: is_number(v) and v > 0, "a number > 0")

# (default, (test, description) of the values it accepts) of each param
PARAMS = {
    "layers": (3, _COUNT),
    "ae_width": (50, _COUNT),
    "clf_width": (500, _COUNT),
    "C": (1.0, _POSITIVE),
    "sigma": (1.0, _POSITIVE),  # kernel bandwidth
    "noise": (0.1, (lambda v: is_number(v) and v >= 0, "a number >= 0")),  # input noise std
    "alpha_mix": (0.5, (lambda v: is_number(v) and 0 <= v <= 1, "a number in [0, 1]")),
    "activation": ("sigmoid", ACTIVATION),
    "solver_iters": (500, _COUNT),  # FISTA/ADMM budget inside autoencoders
}
DEFAULT_PARAMS = {key: default for key, (default, _) in PARAMS.items()}
PARAM_RULES = {key: rule for key, (_, rule) in PARAMS.items()}


def check_param(key, value):
    """Raise ValueError unless value is valid for the param named key.

    Every number must be finite: C = inf would make lam = 1/C = 0,
    which the solvers reject only once training has begun.
    """
    if is_number(value) and not is_finite(value):
        raise ValueError(f"param {key} must be finite, got {value!r}")
    checked({key: value}, PARAM_RULES, lambda message, _: ValueError(message),
            subject="param ")


@dataclass(frozen=True)
class Method:
    name: str
    family: str  # shallow | deep | kernel_stack
    axes: tuple  # grid axes this method searches
    connectivity: str | None = None
    ae_reg: str | None = None  # l2 | l1 | elastic
    denoise: bool = False
    classifier: str = "rvfl"  # rvfl | elm | kelm


def _deep(name, connectivity, ae_reg, denoise=False):
    axes = ("ae_width", "clf_width", "C")
    if denoise:
        axes += ("noise",)
    return Method(name, "deep", axes, connectivity, ae_reg, denoise,
                  classifier="elm" if connectivity == "plain" else "rvfl")


METHODS = {m.name: m for m in [
    Method("elm", "shallow", ("clf_width", "C"), classifier="elm"),
    Method("rvfl", "shallow", ("clf_width", "C"), classifier="rvfl"),
    Method("kelm", "shallow", ("sigma", "C"), classifier="kelm"),
    Method("ml_kelm", "kernel_stack", ("sigma", "C"), connectivity="plain",
           classifier="kelm"),
    # plain stacks with an ELM readout are the baseline framework
    _deep("helm_l1", "plain", "l1"),
    _deep("helm_l2", "plain", "l2"),
    _deep("helm_elastic", "plain", "elastic"),
    # direct: classifier reads [H_L, X]
    _deep("deep_rvfl_direct_l1", "direct", "l1"),
    _deep("deep_rvfl_direct_l2", "direct", "l2"),
    _deep("deep_rvfl_direct_elastic", "direct", "elastic"),
    # dense: every layer and the classifier read all preceding features
    _deep("deep_rvfl_dense_l1", "dense", "l1"),
    _deep("deep_rvfl_dense_l2", "dense", "l2"),
    _deep("deep_rvfl_dense_elastic", "dense", "elastic"),
    # dense plus the denoising criterion in every autoencoder
    _deep("deep_rvfl_dense_denoise_l1", "dense", "l1", denoise=True),
    _deep("deep_rvfl_dense_denoise_l2", "dense", "l2", denoise=True),
    _deep("deep_rvfl_dense_denoise_elastic", "dense", "elastic", denoise=True),
]}


def get_method(name):
    try:
        return METHODS[name]
    except KeyError:
        raise ValueError(
            f"unknown method {name!r}; known methods: {', '.join(sorted(METHODS))}"
        ) from None


def resolve_params(method, params=None):
    merged = dict(DEFAULT_PARAMS)
    merged.update(params or {})
    unknown = set(merged) - set(DEFAULT_PARAMS)
    if unknown:
        raise ValueError(f"unknown params for {method.name}: {sorted(unknown)}")
    return merged


def _decoder_reg(method, lam, params):
    iters = int(params["solver_iters"])
    if method.ae_reg == "l1":
        return L1Config(lam=lam, max_iters=iters, tol=1e-8)
    if method.ae_reg == "elastic":
        return ElasticNetConfig(lam=lam, alpha_mix=params["alpha_mix"],
                                max_iters=iters, tol=1e-8)
    return RidgeConfig(lam=lam)


def build_deep_config(method, params, seed):
    lam = 1.0 / params["C"]
    layer = AutoencoderSpec(
        width=int(params["ae_width"]),
        reg=_decoder_reg(method, lam, params),
        activation=params["activation"],
        noise=params["noise"] if method.denoise else 0.0,
    )
    return DeepConfig(
        layers=[layer] * int(params["layers"]),  # widths tied across layers
        connectivity=method.connectivity,
        classifier=method.classifier,
        clf_width=int(params["clf_width"]),
        clf_lam=lam,
        clf_activation=params["activation"],
        seed=seed,
    )


# The param along which the candidates of one group share their work:
# for shallow nets only the ridge shift depends on C; a deep stack does
# not depend on its classifier's width. A kernel stack shares nothing.
GROUP_AXIS = {"shallow": "C", "deep": "clf_width"}


def group_key(method, params):
    """Candidates with equal keys differ only along the method's group axis."""
    axis = GROUP_AXIS.get(method.family)
    return tuple(sorted((k, v) for k, v in params.items() if k != axis))


def train_group(method, group, X, Y, seed):
    """One model per params of group, which share one group_key; a group
    of one is train_method.

    Shallow groups are fitted along a C path (one layer draw, one design,
    one Gram or kernel matrix); deep groups read one trained stack and
    one classifier input; kernel stacks are trained one by one. Each
    model is bitwise the one its params give as a group of one.
    """
    group = [resolve_params(method, params) for params in group]
    if len({group_key(method, params) for params in group}) != 1:
        raise ValueError(f"{method.name} candidates of one group differ off "
                         f"its group axis {GROUP_AXIS.get(method.family)}")
    params = group[0]
    if method.family == "deep":
        return deep_train(X, Y, build_deep_config(method, params, seed),
                          [int(p["clf_width"]) for p in group])
    kernel = KernelSpec("rbf", sigma=params["sigma"])
    if method.family == "kernel_stack":
        return [mlkelm_train(X, Y, kernel, 1.0 / p["C"], int(p["layers"]), seed)
                for p in group]
    return train_classifier(method.classifier, X, Y, [1.0 / p["C"] for p in group],
                            int(params["clf_width"]), seed, params["activation"], kernel)


def train_method(method, params, X, Y, seed):
    """Train one model of the given method at fixed hyperparameters."""
    return train_group(method, [params], X, Y, seed)[0]


def predict_group(models, X):
    """predict_method for each model of one train_group call, doing the
    shared work (validation design, kernel matrix or stack features) once."""
    if isinstance(models[0], DeepModel):
        return deep_predict_path(models, X)
    return shallow_predict_path(models, X)


def predict_method(model, X):
    return predict_group([model], X)[0]


def hidden_nodes(method, params):
    """Total hidden nodes at the given hyperparameters; kernel maps count 0."""
    params = resolve_params(method, params)
    if method.family == "kernel_stack":
        return 0
    if method.family == "shallow":
        return 0 if method.classifier == "kelm" else int(params["clf_width"])
    return int(params["layers"]) * int(params["ae_width"]) + int(params["clf_width"])
