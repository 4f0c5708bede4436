"""Spans and counts around the program's layer functions, installed from outside.

Nothing in the program is edited: `Tracer.installed()` swaps module functions
and class methods for timing wrappers and restores the originals on exit.
The env and the trainer look these names up at call time (`sc.is_los`,
`T.backward`, `self.optimizer.step`, ...), so a swapped name is what runs.

A span records its wall time and its self time, which is the wall time minus
the wall time of the traced spans called directly inside it.  Spans nest on
one stack because the program is single-threaded.
"""

import importlib
import statistics
from collections import Counter, defaultdict
from contextlib import ExitStack, contextmanager
from time import perf_counter

from airs import channel, scenario, uav
from airs import env as env_mod
from airs.nn import optim, policy, tensor
from airs.rl import necsa, ppo

# `airs.rl` re-exports the function `train`, which hides the module of that name.
train_mod = importlib.import_module("airs.rl.train")


@contextmanager
def patched(owner, name, make_wrapper):
    """Replace `owner.name` by `make_wrapper(original)` for the duration."""
    original = getattr(owner, name)
    setattr(owner, name, make_wrapper(original))
    try:
        yield
    finally:
        setattr(owner, name, original)


def _median(values, scale=1.0) -> float:
    return statistics.median(values) * scale if values else 0.0


class Tracer:
    """Collects spans over one or more rounds; counts are kept per round."""

    def __init__(self):
        self.durations = defaultdict(list)  # span name -> seconds per call
        self.self_times = defaultdict(list)  # span name -> self seconds per call
        self.late_step_self = []  # env.step self seconds in each episode's last tenth
        self.tape_nodes = []  # tape length on entry to each backward
        self.round_counts = []  # one Counter per finished round
        self.round_table_keys = []  # NECSA table size at the end of each round
        self.los_slots = 0
        self.steps = 0
        self._counts = Counter()
        self._shaper = None
        self._stack = []  # open spans: [name, seconds spent in traced children]

    # -- wrappers ----------------------------------------------------------------

    def span(self, name, before=None, after=None):
        """Wrapper factory timing every call of a function as span `name`."""
        stack = self._stack
        durations = self.durations[name]
        self_times = self.self_times[name]
        counts = self._counts

        def make(fn):
            def wrapper(*args, **kwargs):
                if before is not None:
                    before(args)
                frame = [name, 0.0]
                stack.append(frame)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - start
                    stack.pop()
                    if stack:
                        stack[-1][1] += elapsed
                own = elapsed - frame[1]
                durations.append(elapsed)
                self_times.append(own)
                counts[name] += 1
                if after is not None:
                    after(args, own)
                return result

            return wrapper

        return make

    def _count_in_update(self, fn):
        """Counts forward steps made inside an update, without timing them."""
        stack = self._stack
        counts = self._counts

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == "ppo.update":
                counts["nn.actor_step.in_update"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _after_step(self, args, own):
        env = args[0]
        record = env.last_slot
        horizon = env.cfg.horizon
        if record.t >= horizon - horizon // 10:
            self.late_step_self.append(own)
        self.steps += 1
        self.los_slots += bool(record.los)

    def _before_backward(self, args):
        self.tape_nodes.append(tensor.tape_size())

    def _before_revise(self, args):
        self._shaper = args[0]

    @contextmanager
    def installed(self):
        """Trace one round: wrappers in place on entry, originals back on exit."""
        self._counts.clear()
        self._shaper = None
        s = self.span
        with ExitStack() as stack:
            for owner, attr, make in (
                (scenario, "generate_city", s("scenario.generate_city")),
                (scenario, "is_los", s("scenario.is_los")),
                (scenario, "step_user", s("scenario.step_user")),
                (channel, "sample_channel", s("channel.sample_channel")),
                (channel, "optimal_phases", s("channel.optimal_phases")),
                (channel, "achievable_rate", s("channel.achievable_rate")),
                (uav, "propulsion_energy", s("uav.propulsion_energy")),
                (uav, "apply_action", s("uav.apply_action")),
                (env_mod.AirsEnv, "step", s("env.step", after=self._after_step)),
                (policy.ActorCritic, "act", s("nn.act")),
                (policy.ActorCritic, "actor_step", self._count_in_update),
                (tensor, "backward", s("nn.backward", before=self._before_backward)),
                (optim.Adam, "step", s("nn.adam_step")),
                (train_mod, "save_checkpoint", s("nn.checkpoint.save")),
                (train_mod, "load_checkpoint", s("nn.checkpoint.load")),
                (ppo.PpoUpdater, "update", s("ppo.update")),
                (necsa.NecsaShaper, "revise", s("necsa.revise", before=self._before_revise)),
                (train_mod.RunWriter, "slot", s("io.slot_write")),
            ):
                stack.enter_context(patched(owner, attr, make))
            yield self
        self.round_counts.append(Counter(self._counts))
        self.round_table_keys.append(len(self._shaper.table) if self._shaper else 0)

    # -- results -------------------------------------------------------------------

    def per_round(self, name) -> float:
        """Median over rounds of the number of calls of span `name`."""
        return float(statistics.median(c[name] for c in self.round_counts))

    def layer_metrics(self) -> dict:
        """Per-layer values by metric name (timings are medians per call)."""
        us, ms = 1e6, 1e3
        d, own = self.durations, self.self_times
        updates = sum(c["ppo.update"] for c in self.round_counts)
        steps_in_update = sum(c["nn.actor_step.in_update"] for c in self.round_counts)
        return {
            "scenario.is_los.calls": self.per_round("scenario.is_los"),
            "scenario.is_los.us_p50": _median(d["scenario.is_los"], us),
            "channel.sample_channel.us_p50": _median(d["channel.sample_channel"], us),
            "channel.optimal_phases.us_p50": _median(d["channel.optimal_phases"], us),
            "channel.achievable_rate.us_p50": _median(d["channel.achievable_rate"], us),
            "uav.propulsion_energy.us_p50": _median(d["uav.propulsion_energy"], us),
            "uav.apply_action.us_p50": _median(d["uav.apply_action"], us),
            "scenario.step_user.us_p50": _median(d["scenario.step_user"], us),
            "scenario.generate_city.ms": _median(d["scenario.generate_city"], ms),
            "env.step.us_p50": _median(d["env.step"], us),
            "env.step.self_us_p50": _median(own["env.step"], us),
            "env.step.self_us_late": _median(self.late_step_self, us),
            "env.los_share": self.los_slots / self.steps if self.steps else 0.0,
            "nn.act.us_p50": _median(d["nn.act"], us),
            "nn.backward.ms_p50": _median(d["nn.backward"], ms),
            "nn.tape_nodes_per_backward": _median(self.tape_nodes),
            "nn.adam_step.ms_p50": _median(d["nn.adam_step"], ms),
            "nn.actor_step.calls_per_update": steps_in_update / updates if updates else 0.0,
            "nn.checkpoint.save_ms": _median(d["nn.checkpoint.save"], ms),
            "nn.checkpoint.load_ms": _median(d["nn.checkpoint.load"], ms),
            "ppo.update.calls": self.per_round("ppo.update"),
            "ppo.update.s_p50": _median(d["ppo.update"]),
            "ppo.update.self_s_p50": _median(own["ppo.update"]),
            "necsa.revise.us_p50": _median(d["necsa.revise"], us),
            "necsa.table_keys": float(statistics.median(self.round_table_keys)),
            "io.slot_write.us_p50": _median(d["io.slot_write"], us),
        }
