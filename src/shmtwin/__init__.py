"""Digital twin of a battery-powered vibration sensor node with an NB-IoT uplink."""

__version__ = "0.1.0"
