"""Graphviz DOT export of task graphs.

Pure text generation (no graphviz dependency): render with
``dot -Tpng app.dot -o app.png`` wherever graphviz exists. Threads render
as boxes (sources double-bordered, sinks filled), channels as ellipses,
queues as hexagons; per-node ARU operators and capacities annotate the
labels.
"""

from __future__ import annotations

from repro.runtime.graph import CHANNEL, TaskGraph


def _escape(text: str) -> str:
    return text.replace('"', '\\"')


def graph_to_dot(graph: TaskGraph, rankdir: str = "LR") -> str:
    """The DOT document for ``graph``."""
    lines = [
        f'digraph "{_escape(graph.name)}" {{',
        f"  rankdir={rankdir};",
        '  node [fontname="Helvetica", fontsize=11];',
    ]
    for thread in graph.threads():
        attrs = graph.attrs(thread)
        shape = "box"
        style = []
        if graph.is_sink(thread):
            style.append("filled")
        peripheries = 2 if graph.is_source(thread) else 1
        label = thread
        if attrs.get("compress_op"):
            label += f"\\nop={attrs['compress_op']}"
        style_attr = f', style="{",".join(style)}", fillcolor="lightgrey"' \
            if style else ""
        lines.append(
            f'  "{_escape(thread)}" [shape={shape}, peripheries={peripheries}, '
            f'label="{_escape(label)}"{style_attr}];'
        )
    for buffer in graph.buffers():
        attrs = graph.attrs(buffer)
        kind = graph.kind(buffer)
        shape = "ellipse" if kind == CHANNEL else "hexagon"
        label = buffer
        if attrs.get("compress_op"):
            label += f"\\nop={attrs['compress_op']}"
        if attrs.get("capacity"):
            label += f"\\ncap={attrs['capacity']}"
        lines.append(
            f'  "{_escape(buffer)}" [shape={shape}, label="{_escape(label)}"];'
        )
    for src, dst in graph.edges():
        lines.append(f'  "{_escape(src)}" -> "{_escape(dst)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
