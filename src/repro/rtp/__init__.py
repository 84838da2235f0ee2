"""RTP media transport and call quality measurement.

Codec-paced RTP streams over the simulated network, a receiver-side jitter
buffer with pluggable playout policies, RFC 2198 redundancy, and ITU-T
G.107 E-model scoring (R factor / MOS) — the substitute for the paper's
live audio path on laptops and iPAQ handhelds.
"""

from repro.rtp.codecs import (
    CODECS_BY_NAME,
    CODECS_BY_PAYLOAD_TYPE,
    COMFORT_NOISE_PAYLOAD_TYPE,
    Codec,
    G711,
    G711A,
    G729,
    H263,
    RED_PAYLOAD_TYPE,
    TELEPHONE_EVENT_PAYLOAD_TYPE,
    codec_for_payload_type,
)
from repro.rtp.jitter import (
    AdaptivePlayoutPolicy,
    FixedPlayoutPolicy,
    JitterBuffer,
    JitterBufferStats,
    JitterPolicy,
)
from repro.rtp.packet import (
    RTP_HEADER_BYTES,
    RedBlock,
    RtpPacket,
    decode_red,
    decode_rtp,
    encode_red,
    extract_send_time,
    make_voice_payload,
)
from repro.rtp.quality import (
    CallQuality,
    delay_impairment,
    loss_impairment,
    mos_from_r,
    r_factor,
    score_stream,
)
from repro.rtp.session import MAX_REDUNDANCY, RtpSession

__all__ = [
    "AdaptivePlayoutPolicy",
    "CODECS_BY_NAME",
    "CODECS_BY_PAYLOAD_TYPE",
    "COMFORT_NOISE_PAYLOAD_TYPE",
    "CallQuality",
    "Codec",
    "FixedPlayoutPolicy",
    "G711",
    "G711A",
    "G729",
    "H263",
    "JitterBuffer",
    "JitterBufferStats",
    "JitterPolicy",
    "MAX_REDUNDANCY",
    "RED_PAYLOAD_TYPE",
    "RTP_HEADER_BYTES",
    "RedBlock",
    "RtpPacket",
    "RtpSession",
    "TELEPHONE_EVENT_PAYLOAD_TYPE",
    "codec_for_payload_type",
    "decode_red",
    "decode_rtp",
    "delay_impairment",
    "encode_red",
    "extract_send_time",
    "loss_impairment",
    "make_voice_payload",
    "mos_from_r",
    "r_factor",
    "score_stream",
]
