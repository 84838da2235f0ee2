"""Unit tests for component configuration."""

import pytest

from repro.core import ManetSlpConfig, SipAccount, SiphocConfig
from repro.errors import ConfigError
from repro.sip.auth import Credentials


class TestSipAccount:
    def test_figure2_defaults(self):
        account = SipAccount(username="alice", domain="voicehoc.ch")
        assert account.outbound_proxy == "localhost"
        assert account.outbound_proxy_port == 5060
        assert account.uses_local_proxy
        assert account.provider_outbound_proxy is None
        assert account.password is None
        assert account.credentials is None

    def test_aor(self):
        account = SipAccount(username="alice", domain="siphoc.ch")
        assert account.aor.address_of_record == "sip:alice@siphoc.ch"

    def test_credentials_derived_from_password(self):
        account = SipAccount(username="alice", domain="d", password="pw")
        assert account.credentials == Credentials("alice", "pw")

    def test_explicit_outbound_proxy_not_local(self):
        account = SipAccount(username="a", domain="d", outbound_proxy="10.0.0.1")
        assert not account.uses_local_proxy

    @pytest.mark.parametrize("field", ["username", "domain"])
    def test_required_fields(self, field):
        kwargs = {"username": "a", "domain": "d"}
        kwargs[field] = ""
        with pytest.raises(ConfigError):
            SipAccount(**kwargs)


class TestSiphocConfig:
    def test_defaults(self):
        config = SiphocConfig()
        assert config.proxy_port == 5060
        assert config.wan_port == 5061
        assert config.handover is False
        assert isinstance(config.slp, ManetSlpConfig)

    def test_slp_config_is_independent(self):
        a = SiphocConfig()
        b = SiphocConfig()
        a.slp.advert_lifetime = 1.0
        assert b.slp.advert_lifetime != 1.0


class TestManetSlpConfig:
    def test_ablation_knobs_exist(self):
        config = ManetSlpConfig(advert_lifetime=10.0, refresh_interval=5.0)
        assert (config.advert_lifetime, config.refresh_interval) == (10.0, 5.0)
