"""Secure streaming edge gateway.

An emulated register-mapped authentication enclave holds a 256-bit
secret that never leaves the device boundary; a frame publisher gates
an MQTT stream on the enclave's one-bit verdict. Includes the MQTT
3.1.1 codec subset, an embedded QoS-0 broker, a headless subscriber,
and a benchmark harness.

Import the submodules directly (``from streamgate import broker``);
the package itself loads none of them, so a process that runs only
the broker never loads the enclave, driver or keystore.
"""

__version__ = "0.1.0"
