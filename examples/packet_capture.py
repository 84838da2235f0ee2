#!/usr/bin/env python3
"""Packet capture: regenerate the Figure 5 Wireshark view.

Figure 5 of the paper shows "a snapshot of a packet analyzer showing an
AODV route reply with encapsulated SIP contact information" — the moment
MANET SLP answers a lookup by piggybacking the callee's binding onto the
routing reply. This script runs that exact scenario against a promiscuous
capture and renders both the packet-list pane and the detail pane.

Run:  python examples/packet_capture.py
"""

from repro.analyzer import render_capture, render_frame
from repro.analyzer.dissect import dissect_frame
from repro.experiments import figure5_capture


def main() -> None:
    capture = figure5_capture()

    print("packet list (first 20 frames, RTP suppressed):")
    non_rtp = [f for f in capture.frames if not 16384 <= f.packet.dport < 32768]
    print(render_capture(non_rtp[:20]))
    print()

    for number, frame in enumerate(capture.frames, start=1):
        dissection = dissect_frame(frame, number)
        aodv = dissection.find("Ad hoc On-demand")
        if aodv is not None and any("SLP Reply" in child.name for child in aodv.children):
            print("Figure 5 — AODV route reply with encapsulated SIP contact:")
            print(render_frame(frame, number))
            break
    else:
        print("no matching frame captured (unexpected)")


if __name__ == "__main__":
    main()
