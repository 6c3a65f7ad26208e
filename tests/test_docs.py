"""Documentation tests: every code block in the docs actually runs.

Shell blocks are not run; their ``repro-*`` and ``python -m repro.…``
commands must name a real tool and parse with its ``build_parser()``.
"""

import importlib
import importlib.util
import pathlib
import re
import shlex

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def python_blocks(path: pathlib.Path):
    text = path.read_text()
    return re.findall(r"```python\n(.*?)```", text, re.S)


def run_blocks(path: pathlib.Path, namespace=None):
    """Execute every fenced python block of ``path`` in one namespace."""
    namespace = {} if namespace is None else namespace
    blocks = python_blocks(path)
    assert blocks, f"{path.name} contains no python blocks"
    for index, block in enumerate(blocks):
        try:
            exec(block, namespace)
        except Exception as error:  # pragma: no cover - failure detail
            pytest.fail(f"{path.name} block {index} failed: {error}")
    return namespace


class TestTutorial:
    def test_all_blocks_execute_in_order(self):
        blocks = python_blocks(ROOT / "docs" / "TUTORIAL.md")
        assert len(blocks) >= 6
        namespace = run_blocks(ROOT / "docs" / "TUTORIAL.md")
        # The S-LATCH walkthrough actually gated execution.
        slatch = namespace["slatch"]
        assert slatch.counters.traps >= 1
        assert slatch.counters.hw_instructions > 0

    def test_tutorial_taint_flows(self):
        namespace = {}
        for block in python_blocks(ROOT / "docs" / "TUTORIAL.md")[:2]:
            exec(block, namespace)
        engine = namespace["engine"]
        assert engine.stats.tainted_fraction > 0
        assert engine.shadow.tainted_byte_count > 0

    def test_tutorial_observability_section(self):
        namespace = run_blocks(ROOT / "docs" / "TUTORIAL.md")
        snapshot = namespace["snapshot"]
        assert snapshot.get("slatch.traps") >= 1
        assert 0.0 <= snapshot.get("ctc.hit_rate") <= 1.0


class TestReadme:
    def test_every_block_executes(self):
        namespace = run_blocks(ROOT / "README.md")
        assert namespace["engine"].stats.tainted_fraction > 0
        assert namespace["slatch"].counters.total_instructions > 0


class TestRunnerDoc:
    def test_every_block_executes(self):
        namespace = run_blocks(ROOT / "docs" / "RUNNER.md")
        assert namespace["results"]["chaos:ok-cell"].ok

    def test_catalog_names_exist(self):
        """Job-kind snapshot metrics documented in RUNNER.md are
        actually published by the corresponding executor."""
        from repro.runner import JobSpec, Runner, RunnerConfig

        from repro.analysis.spatial import FIG6_DOMAIN_SIZES
        from repro.analysis.temporal import FIG5_THRESHOLDS

        text = (ROOT / "docs" / "RUNNER.md").read_text()
        # Only catalog *table* rows document snapshot metrics; prose and
        # code blocks also name trace events, which live on the span
        # timeline rather than in any registry.  ``{a,b}`` lists and the
        # ``<L>`` / ``<bytes>`` placeholders expand to every name.
        placeholders = {
            "<L>": [str(length) for length in FIG5_THRESHOLDS],
            "<bytes>": [str(size) for size in FIG6_DOMAIN_SIZES],
        }
        documented = set()
        for line in text.splitlines():
            if not line.startswith("|"):
                continue
            for name in re.findall(
                r"`((?:workload|layout|hlatch|baseline|chaos|runner|slatch"
                r"|epochs|platch|fp)"
                r"(?:\.(?:[a-z_]+|\{[a-z_,]+\}|<[a-zA-Z]+>))+)`",
                line,
            ):
                names = [""]
                for part in name.split("."):
                    options = placeholders.get(part) or (
                        part[1:-1].split(",") if part.startswith("{")
                        else [part])
                    names = [f"{head}.{option}".lstrip(".")
                             for head in names for option in options]
                documented.update(names)
        assert "workload.taint_percent" in documented
        assert {"slatch.model.overhead", "hlatch.resolved.tlb",
                "epochs.taint_free_percent.100000", "platch.simple.overhead",
                "fp.multiplier.64"} <= documented

        runner = Runner(config=RunnerConfig(max_workers=1))
        results = runner.run([
            JobSpec.make("taint_fraction", "wget", epoch_scale=50_000),
            JobSpec.make("page_taint", "wget"),
            JobSpec.make("hlatch", "wget", trace_window=2_000),
            JobSpec.make("slatch", "wget", epoch_scale=50_000,
                         trace_window=2_000),
            JobSpec.make("epochs", "wget", epoch_scale=50_000),
            JobSpec.make("fp_sweep", "wget", trace_window=2_000),
            JobSpec.make("chaos", "demo", value=1),
        ])
        published = set(runner.registry.names())
        for result in results.values():
            published.update(result.snapshot.names())
        missing = sorted(documented - published)
        assert not missing, f"documented but never published: {missing}"


class TestPipelineDoc:
    def test_every_block_executes(self):
        namespace = run_blocks(ROOT / "docs" / "PIPELINE.md")
        # The saturated walkthrough really exercised backpressure...
        assert namespace["saturated"].stats.queue_full_stalls > 0
        # ...and the stall model charged it.
        assert namespace["saturated"].model.stall_cycles > 0

    def test_doc_names_every_public_symbol(self):
        """The pipeline package's public API is all documented."""
        import repro.pipeline

        text = (ROOT / "docs" / "PIPELINE.md").read_text()
        for name in repro.pipeline.__all__:
            assert name in text, f"PIPELINE.md does not mention {name}"

    def test_env_knob_table_is_complete(self):
        from repro.pipeline import config as pipeline_config

        text = (ROOT / "docs" / "PIPELINE.md").read_text()
        env_names = [
            value
            for key, value in vars(pipeline_config).items()
            if key.startswith("ENV_")
        ]
        assert env_names, "config module must define ENV_* knobs"
        for variable in env_names:
            assert f"`{variable}`" in text, (
                f"PIPELINE.md env table is missing {variable}"
            )


class TestObservability:
    def test_every_block_executes(self):
        namespace = run_blocks(ROOT / "docs" / "OBSERVABILITY.md")
        snapshot = namespace["snapshot"]
        assert snapshot.get("slatch.traps") >= 1

    def test_catalog_names_exist(self):
        """Every metric named in the catalog tables is published by the
        subsystem the table attributes it to (no doc drift)."""
        from repro import (
            CPU, DIFTEngine, DeviceTable, SLatchSystem, VirtualFile,
            assemble,
        )
        from repro.obs import MetricsRegistry

        text = (ROOT / "docs" / "OBSERVABILITY.md").read_text()
        documented = set(re.findall(r"\| `([a-z_.]+\.[a-z_.]+)` \|", text))
        assert len(documented) >= 50

        source = """
.data
path: .asciiz "in.txt"
buf:  .space 8
.text
_start:
    li r3, 3
    li r4, path
    syscall
    mv r7, r3
    li r3, 1
    mv r4, r7
    li r5, buf
    li r6, 8
    syscall
    li r8, buf
    lbu r9, 0(r8)
    halt
"""
        devices = DeviceTable()
        devices.register_file(VirtualFile("in.txt", b"x" * 8))
        cpu = CPU(assemble(source), devices=devices)
        slatch = SLatchSystem(cpu)
        cpu.run()
        registry = slatch.publish_metrics()

        cpu2 = CPU(assemble(source), devices=DeviceTable())
        engine = DIFTEngine()
        cpu2.attach(engine)
        engine.publish_metrics(registry)

        import numpy as np

        from repro.hlatch import HLatchSystem
        from repro.platch import TwoCoreQueueSimulator
        from repro.slatch import measure_hw_rates, simulate_slatch
        from repro.workloads import WorkloadGenerator, get_profile
        from repro.workloads.trace import EpochStream

        hlatch = HLatchSystem()
        hlatch.access(0x1000, 4)
        hlatch.publish_metrics(registry)

        stream = EpochStream(
            name="s",
            lengths=np.array([10, 10], dtype=np.int64),
            tainted_counts=np.array([0, 5], dtype=np.int64),
        )
        TwoCoreQueueSimulator().run(stream, obs=registry)

        profile = get_profile("wget")
        generator = WorkloadGenerator(profile)
        simulate_slatch(
            profile,
            generator.epoch_stream(50_000),
            measure_hw_rates(generator.access_trace(2_000)),
        ).publish_metrics(registry)
        registry.gauge("workload.tainted_fraction")
        registry.histogram("workload.epoch.taint_free_duration")
        registry.gauge("workload.requests")

        from repro.runner import Runner

        Runner(registry=registry)  # registers runner.* eagerly

        from repro.kernels import publish_metrics

        publish_metrics(registry)  # registers kernels.* (full catalog)

        from repro.trace import (
            columnar_trace_bytes,
            publish_trace_metrics,
            replay_columnar,
        )

        replayed = replay_columnar(
            columnar_trace_bytes(generator.access_trace(2_000)),
            baseline_config=None,
        )
        publish_trace_metrics(registry, replayed, include_timings=True)

        from repro.pipeline import PipelineConfig, StreamingPipeline

        stream_devices = DeviceTable()
        stream_devices.register_file(VirtualFile("in.txt", b"x" * 8))
        stream_cpu = CPU(assemble(source), devices=stream_devices)
        pipeline = StreamingPipeline(
            stream_cpu, config=PipelineConfig(queue_capacity=4)
        )
        stream_cpu.run()
        pipeline.publish_metrics(registry)  # registers pipeline.*

        from repro.serve import TaintServer

        TaintServer(registry=registry)  # registers serve.* gauges

        published = set(registry.names())
        missing = sorted(documented - published)
        assert not missing, f"documented but never published: {missing}"


class TestTraceDoc:
    def test_every_block_executes(self):
        namespace = run_blocks(ROOT / "docs" / "TRACE.md")
        # The replayed engine really matched the live one...
        assert namespace["steps"] == namespace["cpu"].step_count
        # ...and the sharded/serial bit-identity claim held.
        assert namespace["identical"] is True
        assert namespace["result"].shard_count >= 1
        assert "checksum mismatch" in namespace["caught"]

    def test_doc_names_every_public_symbol(self):
        import repro.trace

        text = (ROOT / "docs" / "TRACE.md").read_text()
        for name in repro.trace.__all__:
            assert name in text, f"TRACE.md does not mention {name}"


class TestService:
    def test_every_block_executes(self):
        namespace = run_blocks(ROOT / "docs" / "SERVICE.md")
        # The overload walkthrough really did absorb RETRYs, the query
        # answered true on a tainted byte, and the load run was clean.
        assert namespace["result"].retries > 0
        assert namespace["answer"]["tainted"] is True
        assert namespace["report"].clean
        assert namespace["report"].completed == 16

    def test_service_metric_rows_documented(self):
        text = (ROOT / "docs" / "OBSERVABILITY.md").read_text()
        for name in (
            "serve.inflight", "serve.retries_sent",
            "serve.tenant.<name>.rejected.rate",
            "serve.tenant.<name>.results",
            "serve.tenant.<name>.bucket_tokens",
        ):
            assert f"`{name}`" in text, f"{name} missing from catalog"


class TestWorkloads:
    def test_every_block_executes(self):
        namespace = run_blocks(ROOT / "docs" / "WORKLOADS.md")
        # The replay round-trip really was bit-identical and the storm
        # really multiplied taint density.
        assert namespace["replay"].profile.kind == "replay"
        assert namespace["requests"] >= 1
        rows = namespace["rows"]
        assert rows["kv-storm"]["taint_percent"] > \
            rows["kv-cache"]["taint_percent"]

    def test_doc_names_every_engine(self):
        from repro.workloads import SERVICE_SUITE

        text = (ROOT / "docs" / "WORKLOADS.md").read_text()
        for name in SERVICE_SUITE:
            assert f"`{name}`" in text, f"WORKLOADS.md does not list {name}"

    def test_workload_metric_rows_documented(self):
        text = (ROOT / "docs" / "OBSERVABILITY.md").read_text()
        for name in (
            "workload.tainted_fraction",
            "workload.epoch.taint_free_duration",
            "workload.requests",
        ):
            assert f"`{name}`" in text, f"{name} missing from catalog"


class TestKernelsDoc:
    def test_every_block_executes(self):
        namespace = run_blocks(ROOT / "docs" / "KERNELS.md")
        # The observability walkthrough ends with a populated snapshot.
        assert namespace["snapshot"].get("kernels.classify.calls") >= 1

    def test_kernel_catalog_documented_in_observability(self):
        """Every metric the kernels registry publishes appears in the
        OBSERVABILITY.md catalog tables, and vice versa."""
        from repro.kernels import kernel_registry

        text = (ROOT / "docs" / "OBSERVABILITY.md").read_text()
        documented = {
            name
            for name in re.findall(r"\| `([a-z_.]+\.[a-z_.]+)` \|", text)
            if name.startswith("kernels.")
        }
        published = {
            metric.name for metric in kernel_registry().metrics()
        }
        assert documented == published

    def test_doc_mentions_every_kernel(self):
        from repro.kernels import KERNEL_NAMES

        text = (ROOT / "docs" / "KERNELS.md").read_text()
        for name in KERNEL_NAMES:
            assert name in text, f"KERNELS.md does not mention {name}"


# ------------------------------------------------------------ shell blocks

SHELL_DOCS = [
    ROOT / "README.md", ROOT / "EXPERIMENTS.md",
    *sorted((ROOT / "docs").glob("*.md")),
]

#: ``repro-*`` console script → module, from pyproject.toml.
CONSOLE_SCRIPTS = dict(re.findall(
    r'^(repro-[a-z]+) = "([\w.]+):\w+"$',
    (ROOT / "pyproject.toml").read_text(), re.M,
))


def shell_commands(path: pathlib.Path):
    """Command lines of the bash/console blocks of ``path``.

    Backslash continuations are joined; in console blocks only the
    ``$ `` prompt lines (and their continuations) are commands.
    """
    text = path.read_text()
    for lang, body in re.findall(r"```(bash|sh|console)\n(.*?)```", text, re.S):
        command = None
        for line in body.splitlines():
            if command is None:
                if lang == "console":
                    if not line.startswith("$ "):
                        continue
                    line = line[2:]
                command = line
            else:
                command += " " + line.strip()
            if command.endswith("\\"):
                command = command[:-1]
                continue
            yield command
            command = None


def repro_invocation(command: str):
    """``(tool, args)`` if ``command`` runs a repro tool, else None."""
    words = shlex.split(command, comments=True)
    while words and re.match(r"[A-Za-z_]\w*=", words[0]):
        words.pop(0)  # environment assignments
    for index, word in enumerate(words):
        if word in ("|", "||", "&&", ";", "&", ">", ">>", "<"):
            words = words[:index]
            break
    if words and words[0].startswith("repro-"):
        return words[0], words[1:]
    if (words[:2] in (["python", "-m"], ["python3", "-m"])
            and len(words) > 2 and words[2].startswith("repro")):
        return words[2], words[3:]
    return None


class TestShellCommands:
    @pytest.mark.parametrize("path", SHELL_DOCS, ids=lambda p: p.name)
    def test_commands_name_real_tools_and_parse(self, path):
        for command in shell_commands(path):
            invocation = repro_invocation(command)
            if invocation is None:
                continue
            tool, args = invocation
            if tool.startswith("repro-"):
                assert tool in CONSOLE_SCRIPTS, (
                    f"{path.name}: {tool} is not a declared console script"
                )
                module = CONSOLE_SCRIPTS[tool]
            else:
                module = tool
                assert importlib.util.find_spec(module) is not None, (
                    f"{path.name}: no module {module}"
                )
            parser = importlib.import_module(module).build_parser()
            try:
                parser.parse_args(args)
            except SystemExit as error:
                assert error.code == 0, f"{path.name}: {command!r} does not parse"

    def test_block_scanner(self):
        """The scanner finds the commands it is meant to check."""
        commands = list(shell_commands(ROOT / "docs" / "RUNNER.md"))
        assert "repro-run --list-suites" in commands
        assert repro_invocation(
            "REPRO_X=1 python -m repro.tools.asm a.s > out.txt  # note"
        ) == ("repro.tools.asm", ["a.s"])
