"""Voice codec models.

Each codec defines its packetization schedule (frame interval and size)
and its ITU-T G.113 E-model impairment parameters (equipment impairment
``ie`` and packet-loss robustness ``bpl``), which the quality module uses
to score calls.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class Codec:
    name: str
    payload_type: int
    sample_rate: int
    frame_ms: float
    frame_bytes: int
    ie: float  # E-model equipment impairment (audio only)
    bpl: float  # E-model packet-loss robustness (audio only)
    kind: str = "audio"  # "audio" | "video"

    @property
    def frame_interval(self) -> float:
        return self.frame_ms / 1000.0

    @property
    def timestamp_increment(self) -> int:
        return int(self.sample_rate * self.frame_ms / 1000.0)

    @property
    def bitrate(self) -> float:
        return self.frame_bytes * 8 / self.frame_interval


#: G.711 mu-law: 64 kbit/s, 20 ms frames, robust concealment.
G711 = Codec(
    name="PCMU", payload_type=0, sample_rate=8000, frame_ms=20.0, frame_bytes=160,
    ie=0.0, bpl=34.0,
)

#: G.711 A-law (same properties, different companding).
G711A = Codec(
    name="PCMA", payload_type=8, sample_rate=8000, frame_ms=20.0, frame_bytes=160,
    ie=0.0, bpl=34.0,
)

#: G.729: 8 kbit/s, two 10 ms frames per 20 ms packet.
G729 = Codec(
    name="G729", payload_type=18, sample_rate=8000, frame_ms=20.0, frame_bytes=20,
    ie=11.0, bpl=19.0,
)

#: H.263 video: ~312 kbit/s at 30 fps, one packet per frame (simplified).
H263 = Codec(
    name="H263", payload_type=34, sample_rate=90000, frame_ms=33.0, frame_bytes=1300,
    ie=0.0, bpl=25.0, kind="video",
)

CODECS_BY_PAYLOAD_TYPE = {
    codec.payload_type: codec for codec in (G711, G711A, G729, H263)
}
CODECS_BY_NAME = {codec.name: codec for codec in (G711, G711A, G729, H263)}

# -- non-codec payload types carried in the same RTP streams (§5j) ----------

#: RFC 3389 comfort noise (static payload type 13). No phone here sends it;
#: SDP knows it so a stock softphone's offer of it is declined.
COMFORT_NOISE_PAYLOAD_TYPE = 13

#: RFC 2198 redundant audio ("red"). Dynamic payload type by the RFC; this
#: simulation pins it to 96, the first dynamic slot, on both ends.
RED_PAYLOAD_TYPE = 96

#: RFC 2833/4733 telephone events (DTMF), conventionally 101. Declined in
#: SDP like comfort noise.
TELEPHONE_EVENT_PAYLOAD_TYPE = 101

#: Payload types that ride inside a voice stream without being codecs —
#: SDP negotiation must not mistake them for the stream's codec.
AUXILIARY_PAYLOAD_TYPES = frozenset(
    {COMFORT_NOISE_PAYLOAD_TYPE, RED_PAYLOAD_TYPE, TELEPHONE_EVENT_PAYLOAD_TYPE}
)


def codec_for_payload_type(payload_type: int) -> Codec:
    codec = CODECS_BY_PAYLOAD_TYPE.get(payload_type)
    if codec is None:
        raise ConfigError(f"unknown RTP payload type {payload_type}")
    return codec
