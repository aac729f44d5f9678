"""Top-level MiniC compilation driver."""

from __future__ import annotations

from repro.ir.module import Module
from repro.ir.passes import run_default_pipeline
from repro.ir.verifier import verify_module
from repro.minic.codegen import CodeGenerator
from repro.minic.parser import parse
from repro.minic.sema import analyze


def compile_source(source: str, module_name: str = "minic",
                   optimize: bool = True, verify: bool = True) -> Module:
    """Compile MiniC source text to an (optionally optimized) IR module.

    This is the "LLVM compiler with standard optimizations" step of the
    paper's experimental setup: both LLFI (IR level) and the backend
    (assembly level) consume the module this returns, which is the paper's
    fairness requirement for comparing the two injectors.
    """
    program = parse(source)
    info = analyze(program)
    module = CodeGenerator(program, info, module_name).run()
    if optimize:
        # Verifies the fresh module first, then every pass's output.
        run_default_pipeline(module, verify_each=verify)
    elif verify:
        verify_module(module)
    return module
