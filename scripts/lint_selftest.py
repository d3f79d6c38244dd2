#!/usr/bin/env python3
"""Self-test for scripts/lint_invariants.py.

The invariant lint is itself load-bearing CI — a regex that silently
stops matching re-opens the determinism/locking/wire-seam holes it
guards. This harness builds tiny synthetic `src/` trees in a temp dir
and asserts, rule by rule, that the linter fires where it must, stays
quiet where it must, and honors waivers. Run directly or via CI:

    python3 scripts/lint_selftest.py
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from lint_invariants import Linter  # noqa: E402

FAILURES: list[str] = []


def lint_tree(files: dict[str, str]) -> Linter:
    """Materialize `files` (path -> contents) under a temp root and lint."""
    with tempfile.TemporaryDirectory(prefix="lint_selftest_") as tmp:
        root = Path(tmp)
        for rel, text in files.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
        linter = Linter(root)
        for path in sorted(root.rglob("*")):
            if path.suffix in (".h", ".cpp") and path.is_file():
                if (root / "src") in path.parents:
                    linter.lint_file(path)
        return linter


def check(name: str, files: dict[str, str], want_rules: list[str],
          want_waived: int = 0) -> None:
    linter = lint_tree(files)
    got_rules = sorted(rule for _, _, rule, _ in linter.findings)
    if got_rules != sorted(want_rules):
        FAILURES.append(
            f"{name}: findings {got_rules} != expected {sorted(want_rules)}")
    if linter.waived_count != want_waived:
        FAILURES.append(
            f"{name}: {linter.waived_count} waiver(s) != expected {want_waived}")


# ---------------------------------------------------------------- raw-lock
check("raw-lock fires on std::mutex",
      {"src/core/a.cpp": "std::mutex mu_;\n"}, ["raw-lock"])
check("raw-lock fires once per offending line",
      {"src/audit/a.cpp": "std::unique_lock<std::mutex> l(mu);\n"},
      ["raw-lock"])
check("raw-lock exempt inside the wrapper header",
      {"src/util/thread_annotations.h": "std::mutex inner_;\n"}, [])
check("raw-lock waiver on the line above",
      {"src/core/a.cpp":
       "// lint:allow(raw-lock): intentionally exercised here\n"
       "std::mutex mu_;\n"},
      [], want_waived=1)
check("raw-lock in a comment does not fire",
      {"src/core/a.cpp": "// std::mutex is banned; use util::Mutex\n"}, [])

# ------------------------------------------------------------ detach-async
check("detach-async fires on .detach()",
      {"src/util/a.cpp": "worker.detach();\n"}, ["detach-async"])
check("detach-async fires on std::async",
      {"src/core/a.cpp": "auto f = std::async(run);\n"}, ["detach-async"])

# ---------------------------------------------------------------- fp-accum
check("fp-accum fires on declared-float +=",
      {"src/core/a.cpp": "double acc = 0.0;\nacc += x;\n"}, ["fp-accum"])
check("fp-accum picks up header declarations",
      {"src/core/a.h": "  double total_ = 0.0;\n",
       "src/core/a.cpp": "total_ += x;\n"}, ["fp-accum"])
check("fp-accum exempt in the kernel files",
      {"src/core/cosine_kernels.cpp": "double acc = 0.0;\nacc += x;\n"}, [])
check("fp-accum out of scope outside core/audit",
      {"src/data/a.cpp": "double acc = 0.0;\nacc += x;\n"}, [])
check("fp-accum fires on std::accumulate",
      {"src/audit/a.cpp": "auto s = std::accumulate(v.begin(), v.end(), 0.0);\n"},
      ["fp-accum"])

# ------------------------------------------------------------ unordered-iter
check("unordered-iter fires on range-for over unordered member",
      {"src/core/a.h": "std::unordered_map<int, int> index_;\n",
       "src/core/a.cpp": "for (const auto& kv : index_) { use(kv); }\n"},
      ["unordered-iter"])
check("unordered-iter quiet for ordered containers",
      {"src/core/a.cpp":
       "std::map<int, int> index_;\n"
       "for (const auto& kv : index_) { use(kv); }\n"}, [])

# -------------------------------------------------------------- raw-socket
check("raw-socket fires on a networking header",
      {"src/core/a.cpp": "#include <sys/socket.h>\n"}, ["raw-socket"])
check("raw-socket fires on netinet/arpa/poll headers",
      {"src/audit/a.cpp":
       "#include <netinet/tcp.h>\n#include <arpa/inet.h>\n#include <poll.h>\n"},
      ["raw-socket", "raw-socket", "raw-socket"])
check("raw-socket fires on an unambiguous syscall",
      {"src/core/a.cpp": "int fd = socket(AF_INET, SOCK_STREAM, 0);\n"},
      ["raw-socket"])
check("raw-socket fires on sendmsg/recvmsg/writev",
      {"src/dist/a.cpp": "sendmsg(fd, &msg, 0);\nwritev(fd, iov, 2);\n"},
      ["raw-socket", "raw-socket"])
check("raw-socket fires on globally-qualified short names",
      {"src/core/a.cpp": "::connect(fd, addr, len);\n::poll(&pfd, 1, 50);\n"},
      ["raw-socket", "raw-socket"])
check("raw-socket quiet on project identifiers that shadow short names",
      {"src/dist/a.cpp":
       "auto corpus = DistCorpus::connect(endpoints, fp);\n"
       "pool_.shutdown();\n"
       "listener.accept(100);\n"
       "channel->send(frame);\n"}, [])
check("raw-socket quiet on declarations of shadowing members",
      {"src/dist/a.h":
       "static std::unique_ptr<DistCorpus> connect(\n"
       "    const std::vector<Endpoint>& endpoints);\n"
       "std::optional<Socket> accept(unsigned timeout_ms);\n"}, [])
check("raw-socket exempt under src/net/",
      {"src/net/socket.cpp":
       "#include <sys/socket.h>\n"
       "int fd = socket(AF_INET, SOCK_STREAM, 0);\n"
       "::connect(fd, addr, len);\n"}, [])
check("raw-socket waivable",
      {"src/core/a.cpp":
       "// lint:allow(raw-socket): diagnostics-only, bytes never parsed\n"
       "#include <poll.h>\n"},
      [], want_waived=1)
check("raw-socket in comments and strings is inert",
      {"src/core/a.cpp":
       "// callers must never call socket(2) directly\n"
       "/* ::connect(fd, addr, len) would bypass the seam */\n"}, [])

# --------------------------------------------------------- prefilter-sweep
check("prefilter-sweep allowed in src/core/shard_sweep.cpp",
      {"src/core/shard_sweep.cpp":
       "const std::size_t n = ops.quant_screen_sweep(qc, q, base, d, soa,\n"
       "    limit, prune_max, dots, num, den, hits);\n"
       "const std::size_t m = ops.quant_survivor_scan(num, den, limit, lb, hits);\n"},
      [])
check("prefilter-sweep fires on a sweep outside shard_sweep.cpp",
      {"src/dist/a.cpp":
       "const std::size_t n = ops.quant_screen_sweep(qc, q, base, d, soa,\n"
       "    limit, prune_max, dots, num, den, hits);\n"
       "n = table->quant_survivor_scan(num, den, limit, lb, hits);\n"},
      ["prefilter-sweep", "prefilter-sweep"])
check("prefilter-sweep quiet on the kernel table's own definitions",
      {"src/core/simd_dispatch.cpp":
       "std::size_t quant_screen_sweep_scalar(const QuantSweepQuery& qc);\n"
       "static const KernelOps t = {kScalar, &quant_screen_sweep_scalar};\n",
       "src/core/simd_dispatch.h":
       "std::size_t (*quant_screen_sweep)(const QuantSweepQuery& qc);\n"},
      [])

# --------------------------------------------------------- tape-in-serving
check("tape-in-serving fires on a tape in each serving directory",
      {"src/audit/a.cpp": "static thread_local tensor::Tape tape;\n",
       "src/core/a.cpp": "gnn4ip::tensor::Tape tape;\n",
       "src/dist/a.h": "#include \"tensor/tape.h\"\n",
       "src/net/a.cpp": "using tensor::Tape;\n"},
      ["tape-in-serving"] * 4)
check("tape-in-serving quiet in training and the gnn layers",
      {"src/train/a.cpp": "tensor::Tape& tape = *slot_tapes_[s];\n",
       "src/gnn/a.h": "#include \"tensor/tape.h\"\n",
       "src/tensor/tape.cpp": "Var Tape::constant(Matrix value);\n"}, [])
check("tape-in-serving quiet on comments and look-alike names",
      {"src/audit/a.cpp":
       "// inference runs no tensor::Tape\n"
       "tensor::TapeStats stats;\n"
       "#include \"tensor/tape_free.h\"\n"}, [])
check("tape-in-serving waivable",
      {"src/core/a.cpp":
       "// lint:allow(tape-in-serving): gradient check of a served model\n"
       "tensor::Tape tape;\n"},
      [], want_waived=1)

# ------------------------------------------------------------- exit status
clean = lint_tree({"src/core/a.cpp": "int x = 0;\n"})
if clean.findings:
    FAILURES.append(f"clean tree produced findings: {clean.findings}")

if FAILURES:
    for failure in FAILURES:
        print(f"lint_selftest: FAIL {failure}")
    print(f"lint_selftest: {len(FAILURES)} failure(s)")
    sys.exit(1)
print("lint_selftest: OK (all rule checks passed)")
